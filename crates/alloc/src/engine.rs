//! The incremental best-move engine behind [`Cds`](crate::Cds) and
//! [`DynamicBroadcast`](crate::DynamicBroadcast) repair.
//!
//! The exhaustive CDS scan re-evaluates all `O(KN)` candidate moves per
//! iteration even though Eq. 4's reduction
//! `Δc = f_x(Z_p − Z_q) + z_x(F_p − F_q) − 2 f_x z_x`
//! only reads the two touched groups' aggregates. [`BestMoveEngine`]
//! instead maintains, per item, the best and second-best destination
//! under the reference scan's exact ordering (larger reduction first,
//! ties to the smaller channel id), and a global running best (ties to
//! the smaller item id). After applying the move `(x*: p → q*)` only
//! candidates touching `p` or `q*` can change, so one `O(N)` pass
//! repairs the caches:
//!
//! * items on `p` or `q*` (and `x*` itself) rescan all `K` destinations
//!   — their source aggregates changed, which shifts *every* candidate;
//! * destination `p` improved for everyone else (both aggregates
//!   strictly shrank), so it is merged against the cached top-2 in O(1);
//! * destination `q*` worsened; a cached entry pointing at it is
//!   re-evaluated and, when it falls behind candidates we can no longer
//!   bound, the second-best slot is *invalidated* rather than repaired.
//!   A later demotion with an invalid runner-up triggers the full
//!   rescan lazily.
//!
//! Every cached reduction is produced by the same canonical expression
//! the exhaustive scan uses, over aggregate values maintained by the
//! same update operations, so the engine's move sequence is
//! **bit-for-bit identical** to the reference scan's — the differential
//! battery in `dbcast-conformance` pins that equivalence.
//!
//! From `PAR_MIN_ITEMS` items up, on a machine with more than one
//! core, the init scan and the per-move pass split across
//! `std::thread::scope` threads in fixed item chunks; chunk results
//! merge in ascending item order, so the outcome is identical to the
//! serial pass (there is no rayon in this workspace's vendored
//! dependency set).

/// Sentinel channel id: an empty candidate slot. In the second-best
/// slot it means "unknown" — either fewer than two destinations exist
/// or lazy invalidation discarded the runner-up.
const NONE_CH: u32 = u32::MAX;

/// Item count below which the scans stay serial (thread spawn would
/// dominate). Tunable via [`BestMoveEngine::set_par_min`].
const PAR_MIN_ITEMS: usize = 16_384;

/// One move selected (and possibly applied) by the engine, in dense
/// item-index coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineMove {
    /// The item to relocate.
    pub item: usize,
    /// Its current channel.
    pub from: usize,
    /// The destination channel.
    pub to: usize,
    /// The Eq. 4 reduction, bit-identical to the exhaustive scan's.
    pub reduction: f64,
}

/// Read-only column view shared by the scan kernels (and across
/// threads by the chunked scans).
struct Cols<'a> {
    channels: usize,
    f: &'a [f64],
    z: &'a [f64],
    t2fz: &'a [f64],
    assign: &'a [u32],
    freq: &'a [f64],
    size: &'a [f64],
}

/// Canonical Eq. 4 evaluation — the exact expression shape
/// `f·(Z_p − Z_q) + z·(F_p − F_q) − 2fz` the exhaustive scan computes
/// (`2fz` is precomputed once per item; IEEE multiplication is
/// deterministic, so the bits match).
#[inline]
fn eval(c: &Cols<'_>, x: usize, q: usize) -> f64 {
    let p = c.assign[x] as usize;
    c.f[x] * (c.size[p] - c.size[q]) + c.z[x] * (c.freq[p] - c.freq[q]) - c.t2fz[x]
}

/// The reference scan's candidate order: larger reduction wins, equal
/// reductions go to the smaller channel id (ascending `q` with strict
/// `>` keeps the first).
#[inline]
fn lex_gt(r: f64, q: u32, best_r: f64, best_q: u32) -> bool {
    r > best_r || (r == best_r && q < best_q)
}

/// Exact top-2 destinations for item `x` over all `K` channels.
#[inline]
fn rescan(c: &Cols<'_>, x: usize) -> (u32, f64, u32, f64) {
    let p = c.assign[x] as usize;
    let (fx, zx, t) = (c.f[x], c.z[x], c.t2fz[x]);
    let (fp, zp) = (c.freq[p], c.size[p]);
    let mut b1q = NONE_CH;
    let mut b1r = f64::NEG_INFINITY;
    let mut b2q = NONE_CH;
    let mut b2r = f64::NEG_INFINITY;
    for q in 0..c.channels {
        if q == p {
            continue;
        }
        let r = fx * (zp - c.size[q]) + zx * (fp - c.freq[q]) - t;
        if lex_gt(r, q as u32, b1r, b1q) {
            b2q = b1q;
            b2r = b1r;
            b1q = q as u32;
            b1r = r;
        } else if lex_gt(r, q as u32, b2r, b2q) {
            b2q = q as u32;
            b2r = r;
        }
    }
    (b1q, b1r, b2q, b2r)
}

/// Initial scan over items `lo..lo + b1q.len()`: fills the candidate
/// chunks and returns `(local_best_item, local_best_r)` with
/// `local_best_r` seeded at `threshold` (strict `>`, so the earliest
/// item wins ties, matching the reference's item-ascending scan).
fn init_range(
    c: &Cols<'_>,
    lo: usize,
    b1q: &mut [u32],
    b1r: &mut [f64],
    b2q: &mut [u32],
    b2r: &mut [f64],
    threshold: f64,
) -> (usize, f64) {
    let mut gi = usize::MAX;
    let mut gr = threshold;
    for j in 0..b1q.len() {
        let x = lo + j;
        let (q1, r1, q2, r2) = rescan(c, x);
        b1q[j] = q1;
        b1r[j] = r1;
        b2q[j] = q2;
        b2r[j] = r2;
        if q1 != NONE_CH && r1 > gr {
            gr = r1;
            gi = x;
        }
    }
    (gi, gr)
}

/// Post-move cache repair over items `lo..lo + b1q.len()` after
/// applying `(moved: p → qs)` (aggregates already updated). Returns
/// `(local_best_item, local_best_r, rescans)`.
#[allow(clippy::too_many_arguments)]
fn update_range(
    c: &Cols<'_>,
    lo: usize,
    b1q: &mut [u32],
    b1r: &mut [f64],
    b2q: &mut [u32],
    b2r: &mut [f64],
    moved: usize,
    p: u32,
    qs: u32,
    threshold: f64,
) -> (usize, f64, u64) {
    let mut gi = usize::MAX;
    let mut gr = threshold;
    let mut rescans = 0u64;
    let pi = p as usize;
    for j in 0..b1q.len() {
        let x = lo + j;
        let cx = c.assign[x];
        let q1 = b1q[j];
        let q2 = b2q[j];
        if x == moved || cx == p || cx == qs || (q1 == qs && q2 == NONE_CH) {
            // Source aggregates changed (every candidate shifted), or
            // the cached best worsened with no exact runner-up left to
            // bound the untouched candidates: recompute exactly.
            let (a1, v1, a2, v2) = rescan(c, x);
            b1q[j] = a1;
            b1r[j] = v1;
            b2q[j] = a2;
            b2r[j] = v2;
            rescans += 1;
        } else if q1 != NONE_CH {
            let touched = q1 == p || q1 == qs || (q2 != NONE_CH && (q2 == p || q2 == qs));
            if !touched {
                // Fast path (the overwhelmingly common case): the
                // cached pair kept its exact values, and `p` — the only
                // destination that improved — is the sole candidate
                // that can break into the top-2. One evaluation decides.
                let rp = eval(c, x, pi);
                if q2 != NONE_CH {
                    if lex_gt(rp, p, b2r[j], q2) {
                        if lex_gt(rp, p, b1r[j], q1) {
                            b2q[j] = q1;
                            b2r[j] = b1r[j];
                            b1q[j] = p;
                            b1r[j] = rp;
                        } else {
                            b2q[j] = p;
                            b2r[j] = rp;
                        }
                    }
                } else if lex_gt(rp, p, b1r[j], q1) {
                    // The dethroned best was strictly lex-above every
                    // other destination and none of them moved, so the
                    // promotion recovers an exact runner-up.
                    b2q[j] = q1;
                    b2r[j] = b1r[j];
                    b1q[j] = p;
                    b1r[j] = rp;
                }
            } else {
                // General merge: revalue the cached entries that point
                // at a touched channel (aggregate changes are monotone
                // per destination, so re-evaluation is exact), add `p`,
                // and rank. The pre-move runner-up entry is a strict
                // lex upper bound on every untouched third candidate —
                // the merged top is therefore exact, and the merged
                // second is kept only when it clears that bound.
                let (bq_pre, br_pre) = (q2, b2r[j]);
                let mut eq = [NONE_CH; 3];
                let mut er = [f64::NEG_INFINITY; 3];
                eq[0] = q1;
                er[0] = if q1 == p || q1 == qs { eval(c, x, q1 as usize) } else { b1r[j] };
                let mut m = 1;
                if q2 != NONE_CH {
                    eq[1] = q2;
                    er[1] =
                        if q2 == p || q2 == qs { eval(c, x, q2 as usize) } else { b2r[j] };
                    m = 2;
                }
                if q1 != p && q2 != p {
                    eq[m] = p;
                    er[m] = eval(c, x, pi);
                    m += 1;
                }
                let mut ti = 0;
                for i in 1..m {
                    if lex_gt(er[i], eq[i], er[ti], eq[ti]) {
                        ti = i;
                    }
                }
                let mut si = usize::MAX;
                for i in 0..m {
                    if i != ti && (si == usize::MAX || lex_gt(er[i], eq[i], er[si], eq[si]))
                    {
                        si = i;
                    }
                }
                b1q[j] = eq[ti];
                b1r[j] = er[ti];
                let keep = si != usize::MAX
                    && bq_pre != NONE_CH
                    && (er[si] > br_pre || (er[si] == br_pre && eq[si] <= bq_pre));
                if keep {
                    b2q[j] = eq[si];
                    b2r[j] = er[si];
                } else {
                    b2q[j] = NONE_CH;
                    b2r[j] = f64::NEG_INFINITY;
                }
            }
        }
        if b1q[j] != NONE_CH && b1r[j] > gr {
            gr = b1r[j];
            gi = x;
        }
    }
    (gi, gr, rescans)
}

/// Incrementally maintained best-move state over raw `(f, z)` columns,
/// a dense `item → channel` assignment and per-channel `(F, Z)`
/// aggregates.
///
/// The engine is deliberately representation-agnostic: CDS feeds it
/// normalized frequencies from an [`Allocation`](dbcast_model::Allocation),
/// dynamic repair feeds it raw popularity weights — both get the exact
/// move sequence their exhaustive scan would have produced, because the
/// caller hands over the *evolved* aggregate values rather than letting
/// the engine recompute them.
pub struct BestMoveEngine {
    channels: usize,
    threshold: f64,
    f: Vec<f64>,
    z: Vec<f64>,
    t2fz: Vec<f64>,
    assign: Vec<u32>,
    freq: Vec<f64>,
    size: Vec<f64>,
    b1q: Vec<u32>,
    b1r: Vec<f64>,
    b2q: Vec<u32>,
    b2r: Vec<f64>,
    best_item: usize,
    rescans: u64,
    par_min: usize,
}

impl std::fmt::Debug for BestMoveEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BestMoveEngine")
            .field("items", &self.assign.len())
            .field("channels", &self.channels)
            .field("threshold", &self.threshold)
            .field("rescans", &self.rescans)
            .finish_non_exhaustive()
    }
}

impl Clone for BestMoveEngine {
    fn clone(&self) -> Self {
        BestMoveEngine {
            channels: self.channels,
            threshold: self.threshold,
            f: self.f.clone(),
            z: self.z.clone(),
            t2fz: self.t2fz.clone(),
            assign: self.assign.clone(),
            freq: self.freq.clone(),
            size: self.size.clone(),
            b1q: self.b1q.clone(),
            b1r: self.b1r.clone(),
            b2q: self.b2q.clone(),
            b2r: self.b2r.clone(),
            best_item: self.best_item,
            rescans: self.rescans,
            par_min: self.par_min,
        }
    }
}

impl BestMoveEngine {
    /// Builds the engine and runs the initial `O(NK)` scan.
    ///
    /// `freq`/`size` are the *current* per-channel aggregates the
    /// caller maintains; the engine takes them over verbatim (it does
    /// **not** re-accumulate) so its reductions match the caller's
    /// exhaustive scan bit-for-bit. `threshold` seeds the global best
    /// (strict `>`), mirroring the scan's `min_reduction`.
    ///
    /// # Panics
    ///
    /// Panics on column length mismatches or `channels == 0`.
    pub fn new(
        channels: usize,
        threshold: f64,
        f: Vec<f64>,
        z: Vec<f64>,
        assign: Vec<u32>,
        freq: Vec<f64>,
        size: Vec<f64>,
    ) -> Self {
        assert!(channels > 0, "at least one channel required");
        assert!(channels <= NONE_CH as usize, "channel count exceeds engine range");
        let n = assign.len();
        assert_eq!(f.len(), n, "frequency column length mismatch");
        assert_eq!(z.len(), n, "size column length mismatch");
        assert_eq!(freq.len(), channels, "aggregate frequency length mismatch");
        assert_eq!(size.len(), channels, "aggregate size length mismatch");
        debug_assert!(assign.iter().all(|&c| (c as usize) < channels));
        let t2fz: Vec<f64> = f.iter().zip(&z).map(|(&fx, &zx)| 2.0 * fx * zx).collect();
        let mut engine = BestMoveEngine {
            channels,
            threshold,
            f,
            z,
            t2fz,
            assign,
            freq,
            size,
            b1q: vec![NONE_CH; n],
            b1r: vec![f64::NEG_INFINITY; n],
            b2q: vec![NONE_CH; n],
            b2r: vec![f64::NEG_INFINITY; n],
            best_item: usize::MAX,
            rescans: 0,
            par_min: PAR_MIN_ITEMS,
        };
        engine.init_scan();
        engine
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.assign.len()
    }

    /// Whether the engine tracks no items.
    pub fn is_empty(&self) -> bool {
        self.assign.is_empty()
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// The current `item → channel` assignment.
    pub fn assignment(&self) -> &[u32] {
        &self.assign
    }

    /// The maintained per-channel aggregate frequencies `F_i`.
    pub fn channel_freq(&self) -> &[f64] {
        &self.freq
    }

    /// The maintained per-channel aggregate sizes `Z_i`.
    pub fn channel_size(&self) -> &[f64] {
        &self.size
    }

    /// Full `O(K)` rescans performed so far (the lazy-invalidation
    /// slow path; everything else is O(1) per item per move).
    pub fn rescans(&self) -> u64 {
        self.rescans
    }

    /// Sets the item count below which the scans stay serial; exposed
    /// for tests and tuning.
    pub fn set_par_min(&mut self, n: usize) {
        self.par_min = n;
    }

    /// The best strictly-improving move above the threshold, if any —
    /// the same `(item, to, Δc)` the exhaustive reference scan returns,
    /// bit-for-bit.
    pub fn best(&self) -> Option<EngineMove> {
        if self.best_item == usize::MAX {
            return None;
        }
        let x = self.best_item;
        Some(EngineMove {
            item: x,
            from: self.assign[x] as usize,
            to: self.b1q[x] as usize,
            reduction: self.b1r[x],
        })
    }

    /// Applies the current best move (if any), updates the aggregates
    /// with the same operations an exhaustive caller would use, and
    /// repairs the candidate caches in one `O(N)` pass.
    pub fn apply_best(&mut self) -> Option<EngineMove> {
        let mv = self.best()?;
        let (x, p, q) = (mv.item, mv.from, mv.to);
        self.freq[p] -= self.f[x];
        self.size[p] -= self.z[x];
        self.freq[q] += self.f[x];
        self.size[q] += self.z[x];
        self.assign[x] = q as u32;
        self.update_pass(x, p as u32, q as u32);
        Some(mv)
    }

    fn init_scan(&mut self) {
        let BestMoveEngine {
            channels,
            threshold,
            ref f,
            ref z,
            ref t2fz,
            ref assign,
            ref freq,
            ref size,
            ref mut b1q,
            ref mut b1r,
            ref mut b2q,
            ref mut b2r,
            ..
        } = *self;
        let cols = Cols { channels, f, z, t2fz, assign, freq, size };
        if assign.len() >= self.par_min {
            let merged =
                par_chunks(&cols, b1q, b1r, b2q, b2r, |cols, lo, c1q, c1r, c2q, c2r| {
                    let (gi, gr) = init_range(cols, lo, c1q, c1r, c2q, c2r, threshold);
                    (gi, gr, 0)
                });
            self.best_item = merged.0;
            return;
        }
        let (gi, _gr) = init_range(&cols, 0, b1q, b1r, b2q, b2r, threshold);
        self.best_item = gi;
    }

    fn update_pass(&mut self, moved: usize, p: u32, qs: u32) {
        let BestMoveEngine {
            channels,
            threshold,
            ref f,
            ref z,
            ref t2fz,
            ref assign,
            ref freq,
            ref size,
            ref mut b1q,
            ref mut b1r,
            ref mut b2q,
            ref mut b2r,
            ..
        } = *self;
        let cols = Cols { channels, f, z, t2fz, assign, freq, size };
        if assign.len() >= self.par_min {
            let (gi, _gr, rs) =
                par_chunks(&cols, b1q, b1r, b2q, b2r, |cols, lo, c1q, c1r, c2q, c2r| {
                    update_range(cols, lo, c1q, c1r, c2q, c2r, moved, p, qs, threshold)
                });
            self.best_item = gi;
            self.rescans += rs;
            return;
        }
        let (gi, _gr, rs) =
            update_range(&cols, 0, b1q, b1r, b2q, b2r, moved, p, qs, threshold);
        self.best_item = gi;
        self.rescans += rs;
    }
}

/// Splits the candidate columns into per-thread chunks, runs `kernel`
/// on each under `std::thread::scope`, and merges the local bests in
/// ascending chunk order (strict `>`, so the earliest item still wins
/// ties — identical to the serial pass).
fn par_chunks<F>(
    cols: &Cols<'_>,
    b1q: &mut [u32],
    b1r: &mut [f64],
    b2q: &mut [u32],
    b2r: &mut [f64],
    kernel: F,
) -> (usize, f64, u64)
where
    F: Fn(
            &Cols<'_>,
            usize,
            &mut [u32],
            &mut [f64],
            &mut [u32],
            &mut [f64],
        ) -> (usize, f64, u64)
        + Sync,
{
    let n = b1q.len();
    let threads = std::thread::available_parallelism().map_or(1, |t| t.get()).min(8);
    if threads < 2 || n == 0 {
        return kernel(cols, 0, b1q, b1r, b2q, b2r);
    }
    let chunk = n.div_ceil(threads);
    let mut locals: Vec<(usize, f64, u64)> = Vec::new();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        let iter = b1q
            .chunks_mut(chunk)
            .zip(b1r.chunks_mut(chunk))
            .zip(b2q.chunks_mut(chunk))
            .zip(b2r.chunks_mut(chunk));
        for (ci, (((c1q, c1r), c2q), c2r)) in iter.enumerate() {
            let kernel = &kernel;
            handles.push(s.spawn(move || kernel(cols, ci * chunk, c1q, c1r, c2q, c2r)));
        }
        for h in handles {
            locals.push(h.join().expect("scan worker panicked"));
        }
    });
    let mut gi = usize::MAX;
    let mut gr = f64::NEG_INFINITY;
    let mut rescans = 0u64;
    for (li, lr, lrs) in locals {
        rescans += lrs;
        // Each local best already cleared the threshold; ascending
        // chunk order plus strict `>` reproduces the serial tie-break.
        if li != usize::MAX && (gi == usize::MAX || lr > gr) {
            gi = li;
            gr = lr;
        }
    }
    (gi, gr, rescans)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift features for self-contained tests.
    fn features(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let f: Vec<f64> = (0..n).map(|_| next() + 1e-3).collect();
        let z: Vec<f64> = (0..n).map(|_| 1.0 + 9.0 * next()).collect();
        (f, z)
    }

    fn aggregates(k: usize, f: &[f64], z: &[f64], assign: &[u32]) -> (Vec<f64>, Vec<f64>) {
        let mut freq = vec![0.0; k];
        let mut size = vec![0.0; k];
        for (x, &c) in assign.iter().enumerate() {
            freq[c as usize] += f[x];
            size[c as usize] += z[x];
        }
        (freq, size)
    }

    /// The exhaustive scan the engine must reproduce bit-for-bit.
    fn brute_best(
        k: usize,
        threshold: f64,
        f: &[f64],
        z: &[f64],
        assign: &[u32],
        freq: &[f64],
        size: &[f64],
    ) -> Option<(usize, usize, f64)> {
        let mut best = None;
        let mut best_r = threshold;
        for (x, &p) in assign.iter().enumerate() {
            let p = p as usize;
            for q in 0..k {
                if q == p {
                    continue;
                }
                let r = f[x] * (size[p] - size[q]) + z[x] * (freq[p] - freq[q])
                    - 2.0 * f[x] * z[x];
                if r > best_r {
                    best_r = r;
                    best = Some((x, q, r));
                }
            }
        }
        best
    }

    fn engine_for(n: usize, k: usize, seed: u64) -> BestMoveEngine {
        let (f, z) = features(n, seed);
        let assign: Vec<u32> = (0..n).map(|x| (x % k) as u32).collect();
        let (freq, size) = aggregates(k, &f, &z, &assign);
        BestMoveEngine::new(k, 1e-9, f, z, assign, freq, size)
    }

    #[test]
    fn matches_brute_force_along_full_descent() {
        for seed in [3u64, 17, 99] {
            let mut engine = engine_for(60, 5, seed);
            for step in 0..10_000 {
                let brute = brute_best(
                    engine.channels,
                    engine.threshold,
                    &engine.f,
                    &engine.z,
                    &engine.assign,
                    &engine.freq,
                    &engine.size,
                );
                let got = engine.best().map(|m| (m.item, m.to, m.reduction));
                assert_eq!(
                    got.map(|(x, q, r)| (x, q, r.to_bits())),
                    brute.map(|(x, q, r)| (x, q, r.to_bits())),
                    "seed {seed} step {step}"
                );
                if engine.apply_best().is_none() {
                    break;
                }
            }
            assert!(engine.best().is_none(), "descent must terminate");
        }
    }

    #[test]
    fn cached_top2_is_exact_where_known() {
        let mut engine = engine_for(40, 6, 8);
        for _ in 0..25 {
            for x in 0..engine.len() {
                let cols = Cols {
                    channels: engine.channels,
                    f: &engine.f,
                    z: &engine.z,
                    t2fz: &engine.t2fz,
                    assign: &engine.assign,
                    freq: &engine.freq,
                    size: &engine.size,
                };
                let (q1, r1, q2, r2) = rescan(&cols, x);
                assert_eq!(engine.b1q[x], q1, "item {x} best destination");
                assert_eq!(engine.b1r[x].to_bits(), r1.to_bits(), "item {x} best value");
                if engine.b2q[x] != NONE_CH {
                    assert_eq!(engine.b2q[x], q2, "item {x} runner-up destination");
                    assert_eq!(
                        engine.b2r[x].to_bits(),
                        r2.to_bits(),
                        "item {x} runner-up value"
                    );
                }
            }
            if engine.apply_best().is_none() {
                break;
            }
        }
    }

    #[test]
    fn aggregates_match_recompute_after_descent() {
        let mut engine = engine_for(50, 4, 21);
        while engine.apply_best().is_some() {}
        let (freq, size) =
            aggregates(engine.channels, &engine.f, &engine.z, &engine.assign);
        for c in 0..engine.channels {
            assert!((engine.freq[c] - freq[c]).abs() < 1e-9, "channel {c} frequency");
            assert!((engine.size[c] - size[c]).abs() < 1e-9, "channel {c} size");
        }
    }

    #[test]
    fn single_channel_has_no_moves() {
        let engine = engine_for(10, 1, 5);
        assert!(engine.best().is_none());
    }

    #[test]
    fn empty_engine_has_no_moves() {
        let engine = BestMoveEngine::new(
            3,
            1e-9,
            Vec::new(),
            Vec::new(),
            Vec::new(),
            vec![0.0; 3],
            vec![0.0; 3],
        );
        assert!(engine.best().is_none());
    }

    #[test]
    fn threshold_suppresses_small_reductions() {
        let engine = {
            let (f, z) = features(30, 7);
            let assign: Vec<u32> = (0..30).map(|x| (x % 3) as u32).collect();
            let (freq, size) = aggregates(3, &f, &z, &assign);
            BestMoveEngine::new(3, 1e12, f, z, assign, freq, size)
        };
        assert!(engine.best().is_none(), "no move beats an enormous threshold");
    }

    #[test]
    fn two_channels_keep_exactness_through_source_rescans() {
        // K = 2 exercises the all-items-touched path on every move.
        let mut engine = engine_for(32, 2, 13);
        for _ in 0..5_000 {
            let brute = brute_best(
                engine.channels,
                engine.threshold,
                &engine.f,
                &engine.z,
                &engine.assign,
                &engine.freq,
                &engine.size,
            );
            let got = engine.best().map(|m| (m.item, m.to, m.reduction.to_bits()));
            assert_eq!(got, brute.map(|(x, q, r)| (x, q, r.to_bits())));
            if engine.apply_best().is_none() {
                break;
            }
        }
    }

    #[test]
    fn par_pass_matches_serial_pass() {
        let (f, z) = features(300, 31);
        let assign: Vec<u32> = (0..300).map(|x| (x % 7) as u32).collect();
        let (freq, size) = aggregates(7, &f, &z, &assign);
        let mut serial = BestMoveEngine::new(
            7,
            1e-9,
            f.clone(),
            z.clone(),
            assign.clone(),
            freq.clone(),
            size.clone(),
        );
        serial.set_par_min(usize::MAX);
        let mut par = BestMoveEngine::new(7, 1e-9, f, z, assign, freq, size);
        par.set_par_min(0);
        // Rebuild caches through the par init path too.
        par.init_scan();
        loop {
            let a = serial.apply_best();
            let b = par.apply_best();
            assert_eq!(
                a.map(|m| (m.item, m.from, m.to, m.reduction.to_bits())),
                b.map(|m| (m.item, m.from, m.to, m.reduction.to_bits()))
            );
            if a.is_none() {
                break;
            }
        }
        assert_eq!(serial.assignment(), par.assignment());
    }
}

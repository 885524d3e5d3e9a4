//! The exact scan's 8-bit filter: most candidates of a tiled L2 scan are
//! ruled out on 8-bit codes before the lane-contract kernel computes
//! their dots, and no answer changes by a bit.
//!
//! The store's rows are quantized once ([`StoreCodes`], on the index's
//! first non-empty tiled scan) and a tile's queries as the tile is built
//! ([`TileCodes::load`]), both by [`crate::quant`]'s affine quantizer.
//! Besides its codes every vector keeps an upper bound `ρ` on its residual
//! norm `‖x − x̂‖` ([`residual_norm`]), where `x̂` is what the codes
//! dequantize to. Per stored row one VNNI kernel call
//! ([`dot_u8_tile_vnni`]) gives the exact integer `ΣXY` of the row's codes
//! against each of the tile's sixteen queries, and with it
//! [`ScanLanes::dists_sq`] gives `‖x̂ − ŷ‖²` for every lane. A lane is
//! *rejected* when
//!
//! ```text
//! ((‖x̂ − ŷ‖ − ρ_q − ρ_r)₊)² > bound + m
//! ```
//!
//! where `bound` is the lane's ranking's bound and `m` the margin below.
//!
//! **Why a rejected lane was never going to be offered.** Write `E =
//! ‖q − r‖²` for the exact squared distance and `K` for the key the scan
//! would compute, [`crate::knn::Metric::rank_key`]'s `qq + rr − 2·dot` in
//! f32 from the lane contract's `dot`, `qq` and `rr`. By the triangle
//! inequality `√E ≥ ‖x̂ − ŷ‖ − ρ_q − ρ_r`, so `E` is at least the left
//! side. [`margin`] bounds `|K − E| ≤ m`. A rejected lane therefore has
//! `K ≥ E − m > bound`: its key is above its ranking's bound, and the
//! scan's `key ≤ bound` test would have refused it. The offers the scan
//! makes, and their order, are the unfiltered scan's, so every answer is
//! the same bits at any kernel tier and worker count. Every quantity on the
//! left is computed low and every one on the right high: `‖x̂ − ŷ‖²` less a
//! bound on its f64 evaluation error, and each f64 step scaled by
//! `1 ± 2⁻⁴⁰`.
//!
//! **What the filter skips.** A vector whose squared norm is not at most
//! [`MAX_NORM_SQ`] — NaN or ±∞ in any coordinate, or so large that a key's
//! computation could overflow — is not quantized, and no lane with such a
//! query or row is rejected. A ranking that is not yet full has bound `+∞`
//! and rejects nothing. The index builds codes only for [`Metric::L2`] keys
//! on a CPU with AVX-512 VNNI ([`vnni_available`]); cosine keys and other
//! CPUs run the scan unfiltered.
//!
//! [`Metric::L2`]: crate::knn::Metric::L2
//! [`residual_norm`]: crate::quant::residual_norm
//! [`vnni_available`]: crate::vector::vnni_available

use crate::knn::QUERY_TILE;
use crate::quant::{magnitude, quantize_into, residual_norm, ScanLanes, ScanQuery, ScanTerms};
use crate::store::VectorStore;
#[cfg(target_arch = "x86_64")]
use crate::vector::dot_u8_tile_vnni;
use crate::vector::{dot_u8_tile, transpose_codes, vnni_available, CODE_GROUP, CODE_TILE};

// A scan tile is a code tile.
const _: () = assert!(QUERY_TILE == CODE_TILE);

/// Widest store the filter quantizes: up to here a lane of
/// [`dot_u8_tile`] holds a sum of `255²` products in an `i32`.
const MAX_DIMS: usize = 1 << 15;

/// Largest squared norm, as the lane contract computes it, of a vector the
/// filter quantizes. Below `2¹²⁰` no product, partial sum or key of a pair
/// of such vectors overflows f32, which [`margin`]'s error bound assumes;
/// NaN and `+∞` are not at most anything.
const MAX_NORM_SQ: f32 = 1e36;

/// Whether a vector with this squared norm is quantized: at most
/// [`MAX_NORM_SQ`], which NaN is not.
fn quantizable(norm_sq: f32) -> bool {
    norm_sq <= MAX_NORM_SQ
}

/// The unit roundoff of f32, `2⁻²⁴`.
const UNIT: f64 = f32::EPSILON as f64 / 2.0;

/// `2⁻⁴⁰`: each f64 step of the rejection test is scaled by `1 ± SLACK`,
/// far more than its own rounding.
const SLACK: f64 = 1.0 / (1u64 << 40) as f64;

/// The smallest subnormal f32, `2⁻¹⁴⁹`: twice the most a product that
/// underflows can lose.
const TINY: f64 = f32::from_bits(1) as f64;

/// An upper bound on `|K − E|` for any pair of filterable vectors of
/// `dims` dimensions whose squared norms (as computed) sum to at most
/// `norms_sq`: `K` the scan's f32 key, `E` the exact squared distance.
///
/// In the lane contract a product meets one rounding for its multiply and
/// one per add on its way to the result: at most `⌊n/64⌋` lane adds, six
/// tree adds and the final add, or at most `n mod 64` tail adds and the
/// final add. So `dot`, `qq` and `rr` are each within `γ_h·Σ|pᵢ|` of their
/// exact values (`γ_h = h·u / (1 − h·u)`, `u = 2⁻²⁴`, `h` one more than the
/// longest way), plus `2⁻¹⁵⁰` a product that underflows; `Σ|qᵢrᵢ| ≤ (Q +
/// R)/2`. The key's sum and difference round by `u` each, and `|qq + rr −
/// 2·dot| ≤ 2(Q + R)` plus those errors, so
/// `|K − E| ≤ (2γ_h + 3u)(1 + 2γ_h + 2u)·(qq + rr) + 8n·2⁻¹⁴⁹`; the bound
/// returned is larger.
fn margin(dims: usize, norms_sq: f64) -> f64 {
    let h = 1 + (dims / 64 + 7).max(dims % 64 + 1);
    let hu = h as f64 * UNIT;
    let gamma = hu / (1.0 - hu);
    (2.0 * gamma + 4.0 * UNIT) * 1.01 * norms_sq + (8 * dims + 8) as f64 * TINY
}

/// A stored row's filter terms.
#[derive(Debug, Clone, Copy)]
struct RowCodes {
    /// The decomposition's row-side terms ([`ScanTerms`]).
    terms: ScanTerms,
    /// An upper bound on the row's residual norm.
    rho: f64,
    /// `Σ` of the row's codes, for [`dot_u8_tile_vnni`].
    code_sum: i32,
    /// Whether the row was quantized ([`MAX_NORM_SQ`]).
    filterable: bool,
}

/// A store's rows as 8-bit codes, for the scan's filter.
#[derive(Debug, Clone)]
pub(crate) struct StoreCodes {
    dims: usize,
    /// Codes a row: `dims` rounded up to a multiple of four, the padding
    /// zero.
    stride: usize,
    codes: Vec<u8>,
    rows: Vec<RowCodes>,
    /// Over the filterable rows: the largest squared norm, and the largest
    /// dequantized coordinate ([`magnitude`]).
    norm_sq_max: f64,
    magnitude_max: f64,
}

impl StoreCodes {
    /// Quantize every row of `store` that is filterable. `None` for a store
    /// the filter has no use for: empty, zero-dimensional, or wider than
    /// [`MAX_DIMS`].
    pub(crate) fn build(store: &VectorStore) -> Option<Self> {
        #[cfg(target_arch = "x86_64")]
        if vnni_available() {
            // SAFETY: `vnni_available()` includes AVX-512F.
            return unsafe { Self::build_avx512(store) };
        }
        Self::build_lanes(store)
    }

    /// [`StoreCodes::build`] with the quantizer's loops compiled for
    /// AVX-512, as [`TileCodes::load`]'s are.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    fn build_avx512(store: &VectorStore) -> Option<Self> {
        Self::build_lanes(store)
    }

    #[inline(always)]
    fn build_lanes(store: &VectorStore) -> Option<Self> {
        let dims = store.dims();
        if store.is_empty() || dims == 0 || dims > MAX_DIMS {
            return None;
        }
        let stride = dims.next_multiple_of(4);
        let mut codes = vec![0u8; stride * store.len()];
        let mut rows = Vec::with_capacity(store.len());
        let (mut norm_sq_max, mut magnitude_max) = (0.0f64, 0.0f64);
        let mut scratch = Vec::with_capacity(dims);
        for ((row, norm_sq), slot) in store.rows().zip(codes.chunks_exact_mut(stride)) {
            let filterable = quantizable(norm_sq);
            let meta = quantize_into(if filterable { row } else { &[] }, &mut scratch);
            let mut rho = f64::INFINITY;
            if filterable {
                slot[..dims].copy_from_slice(&scratch);
                rho = residual_norm(row, &scratch, &meta);
                norm_sq_max = norm_sq_max.max(f64::from(norm_sq));
                magnitude_max = magnitude_max.max(magnitude(&meta));
            }
            rows.push(RowCodes {
                terms: ScanTerms::from_meta(&meta),
                rho,
                // At most `255 · MAX_DIMS`.
                code_sum: meta.code_sum as i32,
                filterable,
            });
        }
        Some(StoreCodes {
            dims,
            stride,
            codes,
            rows,
            norm_sq_max,
            magnitude_max,
        })
    }

    fn row_codes(&self, row: usize) -> &[u8] {
        &self.codes[row * self.stride..(row + 1) * self.stride]
    }
}

/// One value per lane of a tile.
type Lanes = [f64; CODE_TILE];

/// A tile's queries as a transposed code tile, with what the rejection
/// test needs per lane. One per scan worker, reloaded tile by tile.
#[derive(Debug, Clone)]
pub(crate) struct TileCodes {
    /// The queries' codes, [`transpose_codes`]' layout.
    codes: Vec<i8>,
    /// The queries' decomposition terms.
    lanes: ScanLanes,
    /// Per lane: an upper bound on the query's residual norm; on the f64
    /// evaluation error of [`ScanLanes::dists_sq`]; and [`margin`] against
    /// any filterable row.
    rho: Lanes,
    error: Lanes,
    margin: Lanes,
    /// Per lane, `ρ_q + √(bound + m)₊`, rounded up: a row is rejected when
    /// `‖x̂ − ŷ‖` exceeds it by more than `ρ_r`. `+∞` while the lane's
    /// ranking is not full.
    reach: Lanes,
    /// The lanes whose query was quantized.
    filterable: u32,
    /// The filterable lanes with a finite reach: those that can reject.
    armed: u32,
    /// Whether [`dot_u8_tile_vnni`] runs here; the portable
    /// [`dot_u8_tile`] otherwise.
    vnni: bool,
    /// [`quantize_into`]'s buffer.
    scratch: Vec<u8>,
}

impl TileCodes {
    /// An empty tile for queries against `store`.
    pub(crate) fn new(store: &StoreCodes) -> Self {
        TileCodes {
            codes: vec![0; store.stride / 4 * CODE_GROUP],
            lanes: ScanLanes::default(),
            rho: [f64::INFINITY; CODE_TILE],
            error: [0.0; CODE_TILE],
            margin: [0.0; CODE_TILE],
            reach: [f64::INFINITY; CODE_TILE],
            filterable: 0,
            armed: 0,
            vnni: vnni_available(),
            scratch: Vec::with_capacity(store.dims),
        }
    }

    /// Quantize a tile's queries, `norms_sq[t]` query `t`'s squared norm as
    /// the scan computed it. Every lane's ranking starts with bound `+∞`.
    ///
    /// # Panics
    /// Panics if there are more than [`QUERY_TILE`] queries or a query's
    /// length is not the store's.
    pub(crate) fn load(&mut self, store: &StoreCodes, queries: &[&[f32]], norms_sq: &[f32]) {
        #[cfg(target_arch = "x86_64")]
        if self.vnni {
            // SAFETY: `vnni` is `vnni_available()`, which includes AVX-512F.
            return unsafe { self.load_avx512(store, queries, norms_sq) };
        }
        self.load_lanes(store, queries, norms_sq);
    }

    /// [`TileCodes::load`] with the quantizer's loops compiled for
    /// AVX-512: a tile is sixteen quantizations, and at the scalar width
    /// they cost a third of a 512-row pool's whole scan.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    fn load_avx512(&mut self, store: &StoreCodes, queries: &[&[f32]], norms_sq: &[f32]) {
        self.load_lanes(store, queries, norms_sq);
    }

    #[inline(always)]
    fn load_lanes(&mut self, store: &StoreCodes, queries: &[&[f32]], norms_sq: &[f32]) {
        assert!(queries.len() <= QUERY_TILE);
        self.filterable = 0;
        self.armed = 0;
        self.reach = [f64::INFINITY; CODE_TILE];
        let dims = store.dims as f64;
        for (t, (query, &norm_sq)) in queries.iter().zip(norms_sq).enumerate() {
            assert_eq!(query.len(), store.dims, "query dimension mismatch");
            if !quantizable(norm_sq) {
                continue;
            }
            let meta = quantize_into(query, &mut self.scratch);
            transpose_codes(&mut self.codes, t, &self.scratch);
            self.lanes.set(t, &ScanQuery::new(store.dims, &meta));
            self.rho[t] = residual_norm(query, &self.scratch, &meta);
            // Every term of the decomposition is at most
            // `6n(μ_q + μ_r)²`, and a dozen f64 steps round it by far less
            // than `2⁻⁴⁰` of that.
            let mu = magnitude(&meta) + store.magnitude_max;
            self.error[t] = SLACK * dims * mu * mu;
            self.margin[t] = margin(store.dims, f64::from(norm_sq) + store.norm_sq_max);
            self.filterable |= 1 << t;
        }
    }

    /// Lane `t`'s ranking now has bound `bound`.
    pub(crate) fn set_bound(&mut self, t: usize, bound: f32) {
        if self.filterable & (1 << t) == 0 {
            return;
        }
        let b = f64::from(bound) + self.margin[t];
        let root = if b > 0.0 {
            (b * (1.0 + SLACK)).sqrt() * (1.0 + SLACK)
        } else {
            0.0
        };
        self.reach[t] = (self.rho[t] + root) * (1.0 + SLACK);
        if self.reach[t].is_finite() {
            self.armed |= 1 << t;
        } else {
            self.armed &= !(1 << t);
        }
    }

    /// The lanes of `live` the filter does not reject against stored row
    /// `row`: those whose candidate goes on to the lane-contract kernel.
    pub(crate) fn survivors(&self, store: &StoreCodes, row: usize, live: u32) -> u32 {
        let codes = &store.rows[row];
        if self.armed & live == 0 || !codes.filterable {
            return live;
        }
        #[cfg(target_arch = "x86_64")]
        if self.vnni {
            // SAFETY: `vnni` is `vnni_available()`.
            return live & !unsafe { self.rejected_vnni(store, row) };
        }
        let dots = dot_u8_tile(store.row_codes(row), &self.codes);
        live & !self.rejected(codes, &dots)
    }

    /// [`TileCodes::rejected`] on [`dot_u8_tile_vnni`]'s dots, the lane
    /// arithmetic compiled for AVX-512 beside it.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512vnni")]
    fn rejected_vnni(&self, store: &StoreCodes, row: usize) -> u32 {
        let codes = &store.rows[row];
        let dots = dot_u8_tile_vnni(store.row_codes(row), codes.code_sum, &self.codes);
        self.rejected(codes, &dots)
    }

    /// The armed lanes whose candidate against the row with `codes` the
    /// module's test rules out, given the exact integer dots of its codes
    /// against the lanes' codes.
    #[inline(always)]
    fn rejected(&self, codes: &RowCodes, dots: &[i32; CODE_TILE]) -> u32 {
        let dists_sq = self.lanes.dists_sq(&codes.terms, dots);
        let mut mask = 0u32;
        let lanes = dists_sq.iter().zip(&self.error).zip(&self.reach);
        for (t, ((&dist_sq, &error), &reach)) in lanes.enumerate() {
            let low = (dist_sq - error) * (1.0 - SLACK);
            let reach = reach + codes.rho;
            let high = reach * reach * (1.0 + SLACK);
            mask |= u32::from(low > high) << t;
        }
        mask & self.armed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::Metric;
    use crate::vector::dot_unrolled;
    use proptest::prelude::*;

    /// SplitMix64.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `[-1, 1)`.
    fn unit(state: &mut u64) -> f32 {
        (next(state) >> 40) as f32 / (1u64 << 23) as f32 - 1.0
    }

    /// One vector of `dims` dimensions of family `kind`: arbitrary values,
    /// a constant (scale 0), values on an exact grid far from zero (so the
    /// codes lose nothing and the key's rounding is all that is left),
    /// subnormals, one spike over small values (coarse codes), integers
    /// `0..=255`, a wide range, all zeros, and a NaN, a `±∞` or a
    /// coordinate too large to quantize.
    fn vector(kind: u64, dims: usize, state: &mut u64) -> Vec<f32> {
        let mut v: Vec<f32> = (0..dims)
            .map(|_| match kind {
                0 => unit(state),
                1 => 0.375,
                2 => 1000.0 + (next(state) % 256) as f32 / 8.0,
                3 => unit(state) * 1e-39,
                4 => (unit(state) + 1.0) * 0.5,
                5 => (next(state) % 256) as f32,
                6 => unit(state) * 1e6,
                7 => 0.0,
                _ => unit(state) * 4.0 + 40.0,
            })
            .collect();
        if dims > 0 {
            let d = next(state) as usize % dims;
            match kind {
                4 => v[d] = 100.0,
                8 => v[d] = f32::NAN,
                9 => v[d] = f32::INFINITY,
                10 => v[d] = f32::NEG_INFINITY,
                11 => v[d] = 1e19,
                _ => {}
            }
        }
        v
    }

    /// What a scan's bound may be against a candidate with key `key`:
    /// exactly the key (a tie, which must be offered), just below and just
    /// above it, a little and a lot below, zero, `-0.0` and `+∞`.
    fn bounds_around(key: f32) -> [f32; 9] {
        [
            key,
            key.next_down(),
            key.next_up(),
            key - key.abs() * 1e-6,
            key - key.abs() * 1e-3,
            key * 0.5,
            0.0,
            -0.0,
            f32::INFINITY,
        ]
    }

    proptest! {
        /// Every lane the filter rejects holds a candidate whose key — as
        /// the scan computes it — is above that lane's bound.
        #[test]
        fn every_rejected_lane_has_its_key_above_its_bound(
            seed in any::<u64>(),
            dims in 1usize..90,
            rows in 1usize..24,
        ) {
            let mut state = seed;
            // Every family in the store and in the tile, and a duplicate
            // of the first row.
            let mut flat = Vec::new();
            for r in 0..rows {
                let kind = if r < 12 { r as u64 } else { next(&mut state) % 12 };
                flat.extend(vector(kind, dims, &mut state));
            }
            flat.extend_from_within(..dims);
            let store = VectorStore::from_flat(flat, dims);
            let codes = StoreCodes::build(&store).expect("a store to quantize");
            let queries: Vec<Vec<f32>> = (0..QUERY_TILE as u64)
                .map(|t| vector((t + seed) % 12, dims, &mut state))
                .collect();
            let tile: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();
            let qqs: Vec<f32> = tile.iter().map(|q| dot_unrolled(q, q)).collect();
            let mut filter = TileCodes::new(&codes);
            filter.load(&codes, &tile, &qqs);
            let live = (1u32 << QUERY_TILE) - 1;
            let mut rejected = 0;
            for (r, (row, rr)) in store.rows().enumerate() {
                let keys: Vec<f32> = tile
                    .iter()
                    .zip(&qqs)
                    .map(|(q, &qq)| Metric::L2.rank_key(dot_unrolled(q, row), qq, rr))
                    .collect();
                for choice in 0..9 {
                    let bounds: Vec<f32> = keys.iter().map(|&k| bounds_around(k)[choice]).collect();
                    for (t, &bound) in bounds.iter().enumerate() {
                        filter.set_bound(t, bound);
                    }
                    let mut out = live & !filter.survivors(&codes, r, live);
                    rejected += out.count_ones();
                    while out != 0 {
                        let t = out.trailing_zeros() as usize;
                        out &= out - 1;
                        prop_assert!(
                            keys[t] > bounds[t],
                            "row {r} lane {t}: key {:e} at bound {:e} rejected",
                            keys[t],
                            bounds[t]
                        );
                    }
                }
            }
            // The test has teeth: the filter rules most of these out.
            prop_assert!(rejected > 0);
        }
    }
}

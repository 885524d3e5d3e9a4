//! 8-bit scalar quantization for the exact scan's filter (`filter.rs`).
//!
//! Each vector (a stored row or a query of the exact tiled scan) is
//! quantized independently with an affine map: `code = round((x −
//! offset) / scale)` where `offset = min(x)` and `scale = (max(x) −
//! min(x)) / 255`, so every coordinate lands exactly in `0..=255` and
//! dequantizes to `offset + scale · code` with at most half a quantization
//! step of error per dimension (`QuantMeta::round_trip_bound`).
//!
//! The point of the affine form is that a squared L2 distance between two
//! quantized vectors decomposes into *integer* sums that are precomputed
//! per vector plus one `u8 × u8` dot product per pair. With `x̂[d] = oₓ +
//! sₓ·X[d]` and `ŷ[d] = o_y + s_y·Y[d]`,
//!
//! ```text
//! ‖x̂ − ŷ‖² = dims·Δo² + sₓ²·ΣX² + s_y²·ΣY²
//!           + 2Δo·(sₓ·ΣX − s_y·ΣY) − 2·sₓ·s_y·ΣXY ,   Δo = oₓ − o_y
//! ```
//!
//! where every `Σ` is an exact integer. The float fix-up around the
//! integer core is a fixed scalar expression evaluated in `f64`.
//!
//! The filter evaluates it for sixteen queries side by side ([`ScanLanes`])
//! with the integer `ΣXY` from `vector::dot_u8_tile_vnni`, and keeps one
//! more quantity per vector: an upper bound on its residual norm `‖x −
//! x̂‖` ([`residual_norm`]), which turns `‖x̂ − ŷ‖` into a lower bound on
//! the true distance.

/// Per-vector dequantization parameters plus the precomputed integer code
/// sums the fused distance fix-up needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct QuantMeta {
    /// Additive term of the affine dequantization (the vector's minimum).
    pub offset: f32,
    /// Quantization step: `(max − min) / 255` (`0.0` for constant vectors).
    pub scale: f32,
    /// `Σ code[d]` — exact integer sum of the codes.
    pub code_sum: u64,
    /// `Σ code[d]²` — exact integer sum of squared codes.
    pub code_sq_sum: u64,
}

impl QuantMeta {
    /// Per-dimension round-trip error bound: `|dequant(quant(x)) − x|` is
    /// at most half a quantization step, plus a small slack for the `f32`
    /// rounding of the forward map and the dequantization itself (the
    /// half-step is the exact-arithmetic bound; each of the handful of
    /// float operations contributes a relative epsilon on quantities no
    /// larger than `|offset| + 255 · scale`).
    #[cfg(test)]
    pub(crate) fn round_trip_bound(&self) -> f32 {
        let magnitude = self.offset.abs() + self.scale * 255.0;
        0.5 * self.scale + magnitude * (f32::EPSILON * 8.0) + f32::MIN_POSITIVE
    }
}

/// Quantize one finite vector into `codes`, returning its [`QuantMeta`].
///
/// `codes` is cleared and refilled (callers reuse one scratch buffer).
///
/// # Panics
/// Panics (debug) if any coordinate is non-finite — the filter quantizes
/// only finite rows and queries.
#[inline(always)]
pub(crate) fn quantize_into(row: &[f32], codes: &mut Vec<u8>) -> QuantMeta {
    debug_assert!(
        row.iter().all(|x| x.is_finite()),
        "quantize_into requires finite coordinates"
    );
    codes.clear();
    codes.resize(row.len(), 0);
    let (min, max) = min_max(row);
    let scale = if max > min { (max - min) / 255.0 } else { 0.0 };
    let inv = if scale > 0.0 { 1.0 / scale } else { 0.0 };
    let mut code_sum = 0u64;
    let mut code_sq_sum = 0u64;
    for (slot, &x) in codes.iter_mut().zip(row) {
        let q = round_code((x - min) * inv);
        code_sum += u64::from(q);
        code_sq_sum += u64::from(q) * u64::from(q);
        *slot = q;
    }
    QuantMeta {
        offset: min,
        scale,
        code_sum,
        code_sq_sum,
    }
}

/// The least and greatest coordinate of a finite vector, `(0, 0)` for an
/// empty one. Eight running minima and maxima, so the passes do not wait
/// on one another; for finite values the order cannot change the result.
#[inline(always)]
fn min_max(row: &[f32]) -> (f32, f32) {
    if row.is_empty() {
        return (0.0, 0.0);
    }
    let mut lo = [f32::INFINITY; 8];
    let mut hi = [f32::NEG_INFINITY; 8];
    let mut chunks = row.chunks_exact(8);
    for chunk in &mut chunks {
        for ((lo, hi), &x) in lo.iter_mut().zip(&mut hi).zip(chunk) {
            *lo = lo.min(x);
            *hi = hi.max(x);
        }
    }
    for &x in chunks.remainder() {
        lo[0] = lo[0].min(x);
        hi[0] = hi[0].max(x);
    }
    let min = lo.iter().fold(f32::INFINITY, |a, &b| a.min(b));
    let max = hi.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
    (min, max)
}

/// `v.round().clamp(0.0, 255.0) as u8` for the `v ≥ 0` (or NaN) the
/// quantizer forms, without `round`'s library call: in `0..=255` the
/// fraction `v − ⌊v⌋` is exact, and rounds up from one half. NaN is 0.
#[inline(always)]
fn round_code(v: f32) -> u8 {
    // `>` is false for NaN.
    let v = if v > 0.0 { v.min(255.0) } else { 0.0 };
    // SAFETY: `v` is in `0.0..=255.0`, so its integer part is a `u8`.
    let whole: u8 = unsafe { v.to_int_unchecked() };
    whole + u8::from(v - f32::from(whole) >= 0.5)
}

/// Query-side constants of the distance decomposition, hoisted out of the
/// per-row scan loop: built once per query ([`ScanQuery::new`]) and set
/// into a lane of [`ScanLanes`]. The expression is evaluated in the exact
/// f64 operation order of the module docs' formula, so only the query-side
/// multiplies are amortized.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScanQuery {
    dims: f64,
    offset: f64,
    /// `sₓ²·ΣX²` — the query's own quadratic term.
    sq_s: f64,
    /// `sₓ·ΣX` — the query's scaled code sum.
    sum_s: f64,
    /// `2·sₓ` — coefficient of the cross term.
    two_s: f64,
}

impl ScanQuery {
    /// Hoist the query residual's constants (`dims` is the vector
    /// dimensionality shared by both sides).
    pub(crate) fn new(dims: usize, x: &QuantMeta) -> Self {
        let sx = f64::from(x.scale);
        ScanQuery {
            dims: dims as f64,
            offset: f64::from(x.offset),
            sq_s: sx * sx * x.code_sq_sum as f64,
            sum_s: sx * x.code_sum as f64,
            two_s: 2.0 * sx,
        }
    }
}

/// The [`ScanQuery`]s of a k-NN tile's sixteen queries, field by field:
/// the exact scan's filter evaluates `‖x̂ − ŷ‖²` for all of them against
/// one stored row as arrays ([`ScanLanes::dists_sq`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct ScanLanes {
    dims: f64,
    offset: [f64; 16],
    sq_s: [f64; 16],
    sum_s: [f64; 16],
    two_s: [f64; 16],
}

impl ScanLanes {
    /// Lane `t` answers for query `q`.
    pub(crate) fn set(&mut self, t: usize, q: &ScanQuery) {
        self.dims = q.dims;
        self.offset[t] = q.offset;
        self.sq_s[t] = q.sq_s;
        self.sum_s[t] = q.sum_s;
        self.two_s[t] = q.two_s;
    }

    /// `‖x̂ − ŷ_t‖²` for every lane `t` against the row with terms `y`,
    /// from the lanes' exact integer `ΣXY`: the module docs' formula in
    /// f64, unclamped.
    #[inline(always)]
    pub(crate) fn dists_sq(&self, y: &ScanTerms, dots: &[i32; 16]) -> [f64; 16] {
        let mut out = [0.0; 16];
        for (t, out) in out.iter_mut().enumerate() {
            let delta = self.offset[t] - f64::from(y.offset);
            *out = self.dims * delta * delta
                + self.sq_s[t]
                + y.sq_s
                + 2.0 * delta * (self.sum_s[t] - y.sum_s)
                - self.two_s[t] * f64::from(y.scale) * f64::from(dots[t]);
        }
        out
    }
}

/// An upper bound on a vector's residual norm `‖row − x̂‖`, where `x̂[d] =
/// offset + scale · codes[d]` exactly, for the codes and metadata
/// [`quantize_into`] gave it. The bound holds for any codes, not only
/// well-chosen ones: it is computed, not derived from the step.
///
/// Each residual is taken in f64, where `scale · code` is exact (24 bits
/// by 8); the sum with the offset and the difference with the row round
/// by at most `2⁻⁵³` of `|row[d]| + |offset| + scale · code` each, so
/// `2⁻⁵⁰` of it added to `|e_d|` bounds the true `|e_d|`. The sum of
/// squares (at most `2¹⁵` terms, so at most `2⁻³⁸` relative error) is
/// scaled up by `1 + 2⁻³⁶` and its square root by `1 + 2⁻⁵⁰`.
#[inline(always)]
pub(crate) fn residual_norm(row: &[f32], codes: &[u8], meta: &QuantMeta) -> f64 {
    let (offset, scale) = (f64::from(meta.offset), f64::from(meta.scale));
    let bound = |x: f32, code: u8| {
        let (x, step) = (f64::from(x), scale * f64::from(code));
        let e = (x - (offset + step)).abs() + (x.abs() + offset.abs() + step) * ROUNDING;
        e * e
    };
    // Eight running sums, so the adds do not wait on one another.
    let mut sums = [0.0f64; 8];
    let whole = row.len().min(codes.len()) / 8 * 8;
    for (xs, cs) in row[..whole]
        .chunks_exact(8)
        .zip(codes[..whole].chunks_exact(8))
    {
        for l in 0..8 {
            sums[l] += bound(xs[l], cs[l]);
        }
    }
    for (&x, &code) in row[whole..].iter().zip(&codes[whole..]) {
        sums[0] += bound(x, code);
    }
    let sum_sq: f64 = sums.iter().sum();
    (sum_sq * (1.0 + (1u64 << 14) as f64 * ROUNDING)).sqrt() * (1.0 + ROUNDING)
}

/// `2⁻⁵⁰`: a few f64 roundings' worth of relative error.
const ROUNDING: f64 = 1.0 / (1u64 << 50) as f64;

/// `|offset| + 255 · scale`: no dequantized coordinate is larger.
pub(crate) fn magnitude(meta: &QuantMeta) -> f64 {
    f64::from(meta.offset).abs() + 255.0 * f64::from(meta.scale)
}

/// Row-side precomputed terms of the distance decomposition, derived once
/// per stored row when the filter quantizes the store (24 bytes, as the
/// [`QuantMeta`] it is derived from).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ScanTerms {
    /// `s_y·ΣY` in f64 (the exact product the decomposition forms).
    sum_s: f64,
    /// `s_y²·ΣY²` in f64.
    sq_s: f64,
    /// The row's [`QuantMeta::offset`].
    offset: f32,
    /// The row's [`QuantMeta::scale`].
    scale: f32,
}

impl ScanTerms {
    /// Derive the scan terms from a row's quantization metadata.
    pub(crate) fn from_meta(m: &QuantMeta) -> Self {
        let sy = f64::from(m.scale);
        ScanTerms {
            sum_s: sy * m.code_sum as f64,
            sq_s: sy * sy * m.code_sq_sum as f64,
            offset: m.offset,
            scale: m.scale,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The exact integer `ΣXY` of two code vectors.
    fn dot_codes(a: &[u8], b: &[u8]) -> u64 {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| u64::from(x) * u64::from(y))
            .sum()
    }

    proptest! {
        /// Quantization round-trip error stays within the derived
        /// per-dimension bound.
        #[test]
        fn quantization_round_trip_within_bound(
            row in prop::collection::vec(-1000.0f32..1000.0, 1..300),
        ) {
            let mut codes = Vec::new();
            let meta = quantize_into(&row, &mut codes);
            let bound = meta.round_trip_bound();
            for (&c, &x) in codes.iter().zip(&row) {
                let back = meta.offset + meta.scale * f32::from(c);
                prop_assert!(
                    (back - x).abs() <= bound,
                    "|{back} - {x}| > {bound} (offset {}, scale {})",
                    meta.offset,
                    meta.scale
                );
            }
        }
    }

    /// The module docs' decomposition, written out from both sides'
    /// metadata: the reference the hoisted lanes must match bit for bit.
    fn approx_l2_sq(dims: usize, x: &QuantMeta, y: &QuantMeta, dot_xy: u64) -> f32 {
        let (sx, sy) = (f64::from(x.scale), f64::from(y.scale));
        let delta = f64::from(x.offset) - f64::from(y.offset);
        let d2 = dims as f64 * delta * delta
            + sx * sx * x.code_sq_sum as f64
            + sy * sy * y.code_sq_sum as f64
            + 2.0 * delta * (sx * x.code_sum as f64 - sy * y.code_sum as f64)
            - 2.0 * sx * sy * dot_xy as f64;
        d2.max(0.0) as f32
    }

    #[test]
    fn round_trip_within_bound() {
        let row: Vec<f32> = (0..64)
            .map(|i| ((i * 37) % 100) as f32 * 0.13 - 5.0)
            .collect();
        let mut codes = Vec::new();
        let meta = quantize_into(&row, &mut codes);
        assert_eq!(codes.len(), row.len());
        let bound = meta.round_trip_bound();
        for (&c, &x) in codes.iter().zip(&row) {
            let back = meta.offset + meta.scale * f32::from(c);
            assert!(
                (back - x).abs() <= bound,
                "|{back} - {x}| > {bound} (scale {})",
                meta.scale
            );
        }
    }

    #[test]
    fn constant_vector_is_exact() {
        let row = vec![3.25f32; 16];
        let mut codes = Vec::new();
        let meta = quantize_into(&row, &mut codes);
        assert_eq!(meta.scale, 0.0);
        assert!(codes.iter().all(|&c| c == 0));
        assert!(row.iter().all(|&x| meta.offset == x));
    }

    #[test]
    fn empty_vector_quantizes() {
        let mut codes = Vec::new();
        let meta = quantize_into(&[], &mut codes);
        assert!(codes.is_empty());
        assert_eq!(meta.code_sum, 0);
    }

    #[test]
    fn approx_l2_tracks_exact_on_dequantized_vectors() {
        // On the *dequantized* vectors the decomposition is algebraically
        // exact, so approx_l2_sq must match a direct computation closely.
        let a: Vec<f32> = (0..32).map(|i| (i as f32 * 0.7).sin()).collect();
        let b: Vec<f32> = (0..32).map(|i| (i as f32 * 1.3).cos()).collect();
        let (mut ca, mut cb) = (Vec::new(), Vec::new());
        let ma = quantize_into(&a, &mut ca);
        let mb = quantize_into(&b, &mut cb);
        let ahat: Vec<f32> = ca
            .iter()
            .map(|&c| ma.offset + ma.scale * f32::from(c))
            .collect();
        let bhat: Vec<f32> = cb
            .iter()
            .map(|&c| mb.offset + mb.scale * f32::from(c))
            .collect();
        let direct: f32 = ahat.iter().zip(&bhat).map(|(x, y)| (x - y) * (x - y)).sum();
        let fused = approx_l2_sq(32, &ma, &mb, dot_codes(&ca, &cb));
        assert!(
            (fused - direct).abs() <= 1e-4 * (1.0 + direct),
            "fused {fused} vs direct {direct}"
        );
    }

    #[test]
    fn hoisted_lanes_are_bit_identical_to_approx_l2_sq() {
        let rows: Vec<Vec<f32>> = (0..20)
            .map(|r| {
                (0..48)
                    .map(|d| ((r * 31 + d * 7) % 57) as f32 * 0.21 - 5.3)
                    .collect()
            })
            .collect();
        // Lane `t` holds query `t`; each row is asked against all sixteen.
        let mut lanes = ScanLanes::default();
        let mut queries = Vec::new();
        for (t, row) in rows[..16].iter().enumerate() {
            let mut codes = Vec::new();
            let meta = quantize_into(row, &mut codes);
            lanes.set(t, &ScanQuery::new(48, &meta));
            queries.push((codes, meta));
        }
        let mut y_codes = Vec::new();
        for row in &rows[16..] {
            let ymeta = quantize_into(row, &mut y_codes);
            let dots = std::array::from_fn(|t| dot_codes(&queries[t].0, &y_codes) as i32);
            let hoisted = lanes.dists_sq(&ScanTerms::from_meta(&ymeta), &dots);
            for (t, (codes, qmeta)) in queries.iter().enumerate() {
                let reference = approx_l2_sq(48, qmeta, &ymeta, dot_codes(codes, &y_codes));
                assert_eq!((hoisted[t].max(0.0) as f32).to_bits(), reference.to_bits());
            }
        }
    }
}

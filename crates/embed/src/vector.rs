//! Dense-vector primitives.
//!
//! # The lane contract
//!
//! [`dot_unrolled`] and [`dot_unrolled_many`] return the same bits on every
//! CPU because every kernel behind them performs one arithmetic, defined by
//! the portable `dot_lanes`:
//!
//! * element `i` of the first `len - len % 64` belongs to lane `i mod 64`;
//!   each lane starts at `0.0` and, chunk by chunk in order, does
//!   `acc = acc + a[i] * b[i]` — a rounded multiply, then a rounded add,
//!   never a fused multiply-add;
//! * the lanes reduce pairwise, `acc[l] += acc[l + w]` for
//!   `w = 32, 16, 8, 4, 2, 1`;
//! * the `len % 64` trailing elements are multiplied and summed in order
//!   into a scalar `tail`, and the result is `acc[0] + tail`.
//!
//! On `x86_64` with AVX2 the kernels are explicit `core::arch` intrinsics.
//! Recompiling `dot_lanes` under `#[target_feature(enable = "avx2")]` is
//! not enough: LLVM vectorizes it but keeps the 64-lane accumulator *on
//! the stack* — every 8-lane step an add from memory and a store back, a
//! store-forward round trip per step — which costs 34–40 ns per
//! 256-dimension pair where the arithmetic allows 15 (64 `ymm` multiplies
//! and adds on two ports at 2.1 GHz). An explicit kernel must keep its
//! accumulators in registers *and* keep at least eight independent add
//! chains in flight: a pass with two chains is bound by add latency at
//! about twice the cost. A future kernel (wider registers, another ISA) is
//! correct when the `to_bits` tests in this module pass against
//! `dot_lanes`; NaN results must be NaN, their payloads are not part of
//! the contract.

#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::*;

/// Dot product of two equal-length vectors.
///
/// # Panics
/// Panics if the vectors have different lengths.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot: dimension mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Dot product accumulated in 64 independent lanes.
///
/// [`dot`] folds into a single accumulator, which pins LLVM to a scalar
/// dependency chain (float addition is not reassociable, so the compiler
/// may not vectorize it). This variant accumulates each `i mod 64` lane
/// separately and reduces pairwise at the end — the explicit reassociation
/// gives wide SIMD enough independent accumulator chains to hide add
/// latency, and is several times faster on 256-dimension embeddings. The
/// summation order *differs* from [`dot`], so results may differ in the
/// last bits; the k-NN indexes use this function exclusively (for both
/// stored norms and query scans), so all distances they report are
/// internally consistent.
///
/// The result is identical on every CPU. The portable core is
/// `dot_lanes`; on `x86_64` with AVX2 (runtime-detected once) explicit
/// `core::arch` kernels perform *the same* lane arithmetic — see
/// [the lane contract](self#the-lane-contract) — so the bits cannot differ
/// between the paths.
///
/// # Panics
/// Panics if the vectors have different lengths.
pub fn dot_unrolled(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot_unrolled: dimension mismatch");
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2 support was verified at runtime.
        return unsafe { dot_lanes_avx2(a, b) };
    }
    dot_lanes(a, b)
}

/// Dot `a` against many vectors in one call: `out[i] = dot_unrolled(a, bs[i])`.
///
/// Bit-identical to calling [`dot_unrolled`] per pair (same lane
/// arithmetic), but the AVX2 dispatch happens once per *call* instead of
/// once per pair and the AVX2 kernel takes the `bs` two at a time, sharing
/// every load of `a` between the two products — the k-NN scans call this
/// once per stored row per query tile, keeping the per-candidate cost to
/// pure arithmetic.
///
/// # Panics
/// Panics if any `bs[i]` length differs from `a`, or if
/// `out.len() != bs.len()`.
pub fn dot_unrolled_many(a: &[f32], bs: &[&[f32]], out: &mut [f32]) {
    assert_eq!(
        bs.len(),
        out.len(),
        "dot_unrolled_many: output length mismatch"
    );
    for b in bs {
        assert_eq!(a.len(), b.len(), "dot_unrolled_many: dimension mismatch");
    }
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2 support was verified at runtime.
        unsafe { dot_many_avx2(a, bs, out) };
        return;
    }
    for (slot, b) in out.iter_mut().zip(bs) {
        *slot = dot_lanes(a, b);
    }
}

/// One-time runtime AVX2 detection, cached in an atomic.
#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    use std::sync::atomic::{AtomicU8, Ordering};
    // 0 = undetected, 1 = avx2, 2 = baseline.
    static AVX2: AtomicU8 = AtomicU8::new(0);
    match AVX2.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => {
            let detected = std::arch::is_x86_feature_detected!("avx2");
            AVX2.store(if detected { 1 } else { 2 }, Ordering::Relaxed);
            detected
        }
    }
}

/// Elements per accumulation step: element `i` belongs to lane `i mod 64`.
const LANES: usize = 64;

/// The lane-accumulation kernel behind [`dot_unrolled`]: the portable
/// implementation and the definition of the
/// [lane contract](self#the-lane-contract) the AVX2 kernels are tested
/// against (64 independent lanes, pairwise reduction, scalar tail).
#[inline(always)]
fn dot_lanes(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; LANES];
    let mut chunks_a = a.chunks_exact(LANES);
    let mut chunks_b = b.chunks_exact(LANES);
    for (ca, cb) in (&mut chunks_a).zip(&mut chunks_b) {
        for lane in 0..LANES {
            acc[lane] += ca[lane] * cb[lane];
        }
    }
    let tail = dot_tail(chunks_a.remainder(), chunks_b.remainder());
    let mut width = LANES / 2;
    while width > 0 {
        for lane in 0..width {
            acc[lane] += acc[lane + width];
        }
        width /= 2;
    }
    acc[0] + tail
}

/// The scalar tail of the lane contract: the `len mod 64` trailing
/// elements, multiplied and summed in order.
#[inline(always)]
fn dot_tail(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// One lane group's step of the [lane contract](self#the-lane-contract):
/// `acc + a[off..off + 8] * b[off..off + 8]`, a multiply then an add —
/// two instructions, never an FMA. Lane group `g` (one `ymm` register)
/// holds lanes `8g..8g + 8`.
///
/// # Safety
/// `off + 8 <= a.len()` and `off + 8 <= b.len()`.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn lane_step(acc: __m256, a: &[f32], b: &[f32], off: usize) -> __m256 {
    debug_assert!(off + 8 <= a.len() && off + 8 <= b.len());
    // SAFETY: the caller guarantees eight readable floats at `off`.
    let (va, vb) = unsafe {
        (
            _mm256_loadu_ps(a.as_ptr().add(off)),
            _mm256_loadu_ps(b.as_ptr().add(off)),
        )
    };
    _mm256_add_ps(acc, _mm256_mul_ps(va, vb))
}

/// The `32 → 16` tree steps for four lane groups two apart:
/// `(g[h] + g[h+4]) + (g[h+2] + g[h+6])`, slot `s` holding group `h + 2s`.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2")]
fn lane_fold(g: [__m256; 4]) -> __m256 {
    _mm256_add_ps(_mm256_add_ps(g[0], g[2]), _mm256_add_ps(g[1], g[3]))
}

/// The rest of the tree for lane groups 0 and 1 as [`lane_fold`] left
/// them — `8`, then `4 → 2 → 1` inside one register — and `acc[0] + tail`.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2")]
fn lane_finish(g0: __m256, g1: __m256, tail: f32) -> f32 {
    let w8 = _mm256_add_ps(g0, g1);
    let w4 = _mm_add_ps(_mm256_castps256_ps128(w8), _mm256_extractf128_ps(w8, 1));
    let w2 = _mm_add_ps(w4, _mm_movehl_ps(w4, w4));
    let w1 = _mm_add_ss(w2, _mm_movehdup_ps(w2));
    _mm_cvtss_f32(w1) + tail
}

/// The 1×1 AVX2 kernel behind [`dot_unrolled`]: [`dot_lanes`]' arithmetic
/// with the eight lane groups in eight registers, one pass over the
/// chunks. Its own kernel rather than [`dot_pair_avx2`] fed `b` twice,
/// which would double the arithmetic of every single dot.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn dot_lanes_avx2(a: &[f32], b: &[f32]) -> f32 {
    let mut even = [_mm256_setzero_ps(); 4];
    let mut odd = even;
    let mut chunks_a = a.chunks_exact(LANES);
    let mut chunks_b = b.chunks_exact(LANES);
    for (ca, cb) in (&mut chunks_a).zip(&mut chunks_b) {
        for s in 0..4 {
            // SAFETY: both chunks hold `LANES` floats and
            // `16 * s + 8 + 8 <= LANES`.
            unsafe {
                even[s] = lane_step(even[s], ca, cb, 16 * s);
                odd[s] = lane_step(odd[s], ca, cb, 16 * s + 8);
            }
        }
    }
    let tail = dot_tail(chunks_a.remainder(), chunks_b.remainder());
    lane_finish(lane_fold(even), lane_fold(odd), tail)
}

/// The 1×2 AVX2 kernel behind [`dot_unrolled_many`]:
/// `(dot_lanes(a, b0), dot_lanes(a, b1))` with each load of `a` shared by
/// both products. Sixteen lane groups do not fit sixteen registers next
/// to the loads, so the chunks are walked twice: pass `h ∈ {0, 1}`
/// accumulates groups `{h, h+2, h+4, h+6}` of both products — eight
/// independent add chains, the fewest that cover the add latency (two
/// chains ran at twice the cost) — and [`lane_fold`]s them.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn dot_pair_avx2(a: &[f32], b0: &[f32], b1: &[f32]) -> (f32, f32) {
    let zero = _mm256_setzero_ps();
    let mut folded = [[zero; 2]; 2];
    for (h, folded) in folded.iter_mut().enumerate() {
        let mut g0 = [zero; 4];
        let mut g1 = [zero; 4];
        let chunks = a.chunks_exact(LANES);
        for ((ca, c0), c1) in chunks
            .zip(b0.chunks_exact(LANES))
            .zip(b1.chunks_exact(LANES))
        {
            for s in 0..4 {
                let off = 8 * h + 16 * s;
                // SAFETY: the three chunks hold `LANES` floats and
                // `off + 8 <= 8 + 48 + 8 = LANES`.
                unsafe {
                    g0[s] = lane_step(g0[s], ca, c0, off);
                    g1[s] = lane_step(g1[s], ca, c1, off);
                }
            }
        }
        *folded = [lane_fold(g0), lane_fold(g1)];
    }
    let rest = a.len() - a.len() % LANES;
    let ta = &a[rest..];
    (
        lane_finish(folded[0][0], folded[1][0], dot_tail(ta, &b0[rest..])),
        lane_finish(folded[0][1], folded[1][1], dot_tail(ta, &b1[rest..])),
    )
}

/// [`dot_unrolled_many`]'s AVX2 body: the `bs` two at a time through
/// [`dot_pair_avx2`], an odd last one through [`dot_lanes_avx2`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn dot_many_avx2(a: &[f32], bs: &[&[f32]], out: &mut [f32]) {
    let mut pairs = bs.chunks_exact(2);
    let mut slots = out.chunks_exact_mut(2);
    for (pair, slot) in (&mut pairs).zip(&mut slots) {
        (slot[0], slot[1]) = dot_pair_avx2(a, pair[0], pair[1]);
    }
    for (b, slot) in pairs.remainder().iter().zip(slots.into_remainder()) {
        *slot = dot_lanes_avx2(a, b);
    }
}

/// Integer dot product of two equal-length `u8` code vectors — the fused
/// kernel behind the IVF quantized-residual scan ([`crate::ivf`]).
///
/// Follows the same runtime-AVX2 kernel discipline as [`dot_unrolled`]:
/// one ISA-independent lane-accumulation core, compiled a second time with
/// AVX2 enabled and dispatched once per call via the cached CPU probe. The
/// arithmetic is pure integer (`u8 × u8` widened to `u32`, flushed to
/// `u64` block-wise), so the result is *exactly* identical on every CPU —
/// there is no floating-point reassociation to reason about at all.
///
/// # Panics
/// Panics if the vectors have different lengths.
pub fn dot_u8(a: &[u8], b: &[u8]) -> u64 {
    assert_eq!(a.len(), b.len(), "dot_u8: dimension mismatch");
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2 support was verified at runtime.
        return unsafe { dot_u8_avx2(a, b) };
    }
    dot_u8_core(a, b)
}

/// Dot one `u8` code vector against many contiguous rows in one call:
/// `out[i] = dot_u8(a, flat[i*d..(i+1)*d])` where `d = a.len()`.
///
/// Bit-identical to calling [`dot_u8`] per row (same integer arithmetic);
/// the AVX2 dispatch happens once per *call* instead of once per row, so
/// the IVF scan pays one dispatch per probed inverted list.
///
/// # Panics
/// Panics if `flat.len() != a.len() * out.len()`.
pub fn dot_u8_many(a: &[u8], flat: &[u8], out: &mut [u64]) {
    let dims = a.len();
    assert_eq!(
        flat.len(),
        dims * out.len(),
        "dot_u8_many: flat buffer length mismatch"
    );
    if dims == 0 {
        out.fill(0);
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2 support was verified at runtime.
        unsafe { dot_u8_many_avx2(a, flat, out) };
        return;
    }
    dot_u8_many_core(a, flat, out);
}

#[inline(always)]
fn dot_u8_many_core(a: &[u8], flat: &[u8], out: &mut [u64]) {
    let dims = a.len();
    for (i, slot) in out.iter_mut().enumerate() {
        *slot = dot_u8_core(a, &flat[i * dims..(i + 1) * dims]);
    }
}

/// [`dot_u8_many_core`] with the explicit AVX2 row kernel.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_u8_many_avx2(a: &[u8], flat: &[u8], out: &mut [u64]) {
    let dims = a.len();
    for (i, slot) in out.iter_mut().enumerate() {
        *slot = unsafe { dot_u8_avx2(a, &flat[i * dims..(i + 1) * dims]) };
    }
}

/// The lane-accumulation kernel behind [`dot_u8`]: 16 independent `u32`
/// lanes of widened `u8` products, flushed into a `u64` total every
/// [`U8_BLOCK`] elements so the `u32` lanes can never overflow regardless
/// of dimensionality (each product is at most `255² = 65 025`, and a lane
/// absorbs at most `U8_BLOCK / 16` of them between flushes).
#[inline(always)]
fn dot_u8_core(a: &[u8], b: &[u8]) -> u64 {
    const LANES: usize = 16;
    let mut total = 0u64;
    let mut blocks_a = a.chunks(U8_BLOCK);
    let mut blocks_b = b.chunks(U8_BLOCK);
    for (ba, bb) in (&mut blocks_a).zip(&mut blocks_b) {
        let mut acc = [0u32; LANES];
        let mut chunks_a = ba.chunks_exact(LANES);
        let mut chunks_b = bb.chunks_exact(LANES);
        for (ca, cb) in (&mut chunks_a).zip(&mut chunks_b) {
            for lane in 0..LANES {
                acc[lane] += u32::from(ca[lane]) * u32::from(cb[lane]);
            }
        }
        let tail: u64 = chunks_a
            .remainder()
            .iter()
            .zip(chunks_b.remainder())
            .map(|(x, y)| u64::from(*x) * u64::from(*y))
            .sum();
        total += acc.iter().map(|&x| u64::from(x)).sum::<u64>() + tail;
    }
    total
}

/// Flush interval for [`dot_u8_core`]'s `u32` lanes: `16 384 / 16` lane
/// entries × `65 025` max product ≈ `6.7 × 10⁷`, comfortably inside `u32`.
const U8_BLOCK: usize = 16 * 1024;

/// Explicit AVX2 kernel behind [`dot_u8`]: zero-extend 16 `u8`s of each
/// operand into `i16` lanes and let `vpmaddwd` multiply and pair-sum them
/// into `i32` lanes. Both operands are ≤ 255, so the signed 16-bit
/// multiply is exact (max product `65 025`) and each pair-sum is at most
/// `130 050`; lanes flush into the `u64` total every [`U8_BLOCK`]
/// elements (≤ 1024 pair-sums per lane per block, far below `u32`
/// overflow). Pure integer arithmetic: the result equals
/// [`dot_u8_core`]'s exactly on every input — recompiling the widening
/// `u8 → u32` core under AVX2 left LLVM with scalar widening multiplies
/// at ~3.5 GB/s, while this form runs at memory bandwidth.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_u8_avx2(a: &[u8], b: &[u8]) -> u64 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len();
    let mut total = 0u64;
    let mut i = 0usize;
    while i + 16 <= n {
        let block_end = n.min(i + U8_BLOCK);
        let mut acc = _mm256_setzero_si256();
        while i + 16 <= block_end {
            // SAFETY: `i + 16 <= n` holds for both equal-length slices.
            let va = unsafe { _mm_loadu_si128(a.as_ptr().add(i).cast()) };
            let vb = unsafe { _mm_loadu_si128(b.as_ptr().add(i).cast()) };
            let wa = _mm256_cvtepu8_epi16(va);
            let wb = _mm256_cvtepu8_epi16(vb);
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(wa, wb));
            i += 16;
        }
        let mut lanes = [0u32; 8];
        // SAFETY: `lanes` is exactly 32 bytes.
        unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast(), acc) };
        total += lanes.iter().map(|&x| u64::from(x)).sum::<u64>();
    }
    for (&x, &y) in a[i..].iter().zip(&b[i..]) {
        total += u64::from(x) * u64::from(y);
    }
    total
}

/// Euclidean (L2) distance between two equal-length vectors.
///
/// # Panics
/// Panics if the vectors have different lengths.
pub fn l2_distance(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "l2_distance: dimension mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum::<f32>()
        .sqrt()
}

/// Cosine similarity in `[-1, 1]`; zero vectors yield `0.0`.
///
/// # Panics
/// Panics if the vectors have different lengths.
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "cosine_similarity: dimension mismatch");
    let na = dot(a, a).sqrt();
    let nb = dot(b, b).sqrt();
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    (dot(a, b) / (na * nb)).clamp(-1.0, 1.0)
}

/// Normalize a vector to unit L2 norm in place; zero vectors are unchanged.
pub fn normalize(v: &mut [f32]) {
    let norm = dot(v, v).sqrt();
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn dot_unrolled_matches_dot_on_exact_values() {
        // Small integers are exactly representable, so lane reassociation
        // cannot change the sum: both paths must agree to the bit.
        for n in [0usize, 1, 7, 15, 16, 17, 31, 32, 33, 64, 100, 256] {
            let a: Vec<f32> = (0..n).map(|i| (i % 11) as f32 - 5.0).collect();
            let b: Vec<f32> = (0..n).map(|i| (i % 7) as f32 - 3.0).collect();
            assert_eq!(dot_unrolled(&a, &b), dot(&a, &b), "n = {n}");
        }
    }

    #[test]
    fn dot_unrolled_close_to_dot_on_fractions() {
        let a: Vec<f32> = (0..300).map(|i| (i as f32 * 0.37).sin()).collect();
        let b: Vec<f32> = (0..300).map(|i| (i as f32 * 0.61).cos()).collect();
        assert!((dot_unrolled(&a, &b) - dot(&a, &b)).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dot_unrolled_dimension_mismatch_panics() {
        dot_unrolled(&[1.0], &[1.0, 2.0]);
    }

    /// Deterministic, sign-mixed, non-representable values (so a changed
    /// summation order shows in the last bits).
    fn wobble(n: usize, salt: u32) -> Vec<f32> {
        (0..n)
            .map(|i| {
                ((i as u32).wrapping_mul(2_654_435_761).wrapping_add(salt) as f32 * 1e-9).sin()
                    * 3.7
            })
            .collect()
    }

    /// `dot_unrolled` and `dot_unrolled_many` at every tile width in
    /// `widths` against the portable core.
    fn assert_kernels_match_lanes(
        a: &[f32],
        bs: &[Vec<f32>],
        widths: std::ops::RangeInclusive<usize>,
    ) {
        let want: Vec<f32> = bs.iter().map(|b| dot_lanes(a, b)).collect();
        let same = |got: f32, want: f32| {
            got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan())
        };
        for (b, &w) in bs.iter().zip(&want) {
            let got = dot_unrolled(a, b);
            assert!(same(got, w), "1x1 len {}: {got:e} vs {w:e}", a.len());
        }
        let refs: Vec<&[f32]> = bs.iter().map(Vec::as_slice).collect();
        for width in widths {
            let mut out = vec![f32::NAN; width];
            dot_unrolled_many(a, &refs[..width], &mut out);
            for (t, (&got, &w)) in out.iter().zip(&want).enumerate() {
                assert!(
                    same(got, w),
                    "len {} width {width} slot {t}: {got:e} vs {w:e}",
                    a.len()
                );
            }
        }
    }

    #[test]
    fn kernels_match_the_portable_lanes_at_every_length() {
        // Every tail length and 0..=16 chunks, at an even and an odd width.
        for n in 0..=1030 {
            let a = wobble(n, 1);
            let bs: Vec<Vec<f32>> = (0..3).map(|t| wobble(n, 77 + t)).collect();
            assert_kernels_match_lanes(&a, &bs, 2..=3);
        }
    }

    #[test]
    fn kernels_match_the_portable_lanes_at_every_tile_width() {
        // Odd and even remainders of the 1×2 blocking, whole chunks and a tail.
        for n in [256usize, 64 * 3 + 21] {
            let a = wobble(n, 5);
            let bs: Vec<Vec<f32>> = (0..17).map(|t| wobble(n, 1000 + t)).collect();
            assert_kernels_match_lanes(&a, &bs, 0..=17);
        }
    }

    #[test]
    fn kernels_match_the_portable_lanes_on_special_values() {
        let specials = [
            0.0f32,
            -0.0,
            f32::MIN_POSITIVE / 4.0,
            -f32::MIN_POSITIVE / 8.0,
            f32::from_bits(1),
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            1.0,
            -1.5,
            f32::NAN,
        ];
        // `pool` leaves NaN and the infinities out of half the vectors so
        // that signed zeros, subnormals and overflow decide some results.
        let vector = |n: usize, salt: usize, pool: usize| -> Vec<f32> {
            (0..n)
                .map(|i| specials[(i * 7 + salt * 13 + i / 5) % pool])
                .collect()
        };
        for n in [0usize, 1, 5, 63, 64, 65, 130, 256, 300] {
            for salt in 0..6 {
                let pool = if salt % 2 == 0 { 5 } else { specials.len() };
                let a = vector(n, salt, pool);
                let bs: Vec<Vec<f32>> =
                    (0..5).map(|t| vector(n, salt * 31 + t + 1, pool)).collect();
                assert_kernels_match_lanes(&a, &bs, 0..=5);
            }
        }
        // All products −0.0: the zero-initialised lanes make the sum +0.0
        // or −0.0 exactly as the portable core does.
        let neg = vec![-0.0f32; 130];
        let pos = vec![1.0f32; 130];
        assert_kernels_match_lanes(&neg, &[pos.clone(), pos], 0..=2);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dot_unrolled_many_dimension_mismatch_panics() {
        dot_unrolled_many(&[1.0, 2.0], &[&[1.0, 2.0], &[1.0]], &mut [0.0; 2]);
    }

    #[test]
    fn dot_u8_matches_naive_sum() {
        for n in [0usize, 1, 15, 16, 17, 255, 256, 1000] {
            let a: Vec<u8> = (0..n).map(|i| (i * 37 % 256) as u8).collect();
            let b: Vec<u8> = (0..n).map(|i| (i * 91 + 13) as u8).collect();
            let naive: u64 = a
                .iter()
                .zip(&b)
                .map(|(x, y)| u64::from(*x) * u64::from(*y))
                .sum();
            assert_eq!(dot_u8(&a, &b), naive, "n = {n}");
        }
    }

    #[test]
    fn dot_u8_saturated_codes_do_not_overflow() {
        // Worst case: every product is 255² across a block boundary.
        let n = U8_BLOCK + 17;
        let a = vec![255u8; n];
        assert_eq!(dot_u8(&a, &a), 65_025 * n as u64);
    }

    #[test]
    fn dot_u8_many_matches_per_row() {
        let dims = 7;
        let a: Vec<u8> = (0..dims).map(|i| (i * 31) as u8).collect();
        let flat: Vec<u8> = (0..dims * 5).map(|i| (i * 3 + 1) as u8).collect();
        let mut out = vec![0u64; 5];
        dot_u8_many(&a, &flat, &mut out);
        for (i, &got) in out.iter().enumerate() {
            assert_eq!(got, dot_u8(&a, &flat[i * dims..(i + 1) * dims]));
        }
        // Zero-dimension codes: every dot is 0.
        let mut out = vec![7u64; 3];
        dot_u8_many(&[], &[], &mut out);
        assert_eq!(out, vec![0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "flat buffer length mismatch")]
    fn dot_u8_many_length_mismatch_panics() {
        dot_u8_many(&[1, 2], &[1, 2, 3], &mut [0u64; 2]);
    }

    #[test]
    fn l2_basic() {
        assert_eq!(l2_distance(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(l2_distance(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn cosine_identical_and_orthogonal() {
        let a = [1.0, 0.0];
        let b = [0.0, 1.0];
        assert!((cosine_similarity(&a, &a) - 1.0).abs() < 1e-6);
        assert!(cosine_similarity(&a, &b).abs() < 1e-6);
        assert!((cosine_similarity(&a, &[-1.0, 0.0]) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_zero_vector_is_zero() {
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn normalize_unit_norm() {
        let mut v = vec![3.0, 4.0];
        normalize(&mut v);
        assert!((dot(&v, &v) - 1.0).abs() < 1e-6);
        let mut z = vec![0.0, 0.0];
        normalize(&mut z);
        assert_eq!(z, vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }
}

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
//! # Kernel tiers
//!
//! On `x86_64` the kernels are explicit `core::arch` intrinsics in two
//! tiers, chosen by one cached runtime check: AVX-512F where the CPU has
//! it, else AVX2, else the portable core. Each tier keeps the 64 lanes in
//! registers — eight `ymm` of eight lanes, or four `zmm` of sixteen (lane
//! `16g + j` in register `g`) — and folds them with the contract's tree.
//! Recompiling `dot_lanes` under `#[target_feature]` is not enough: LLVM
//! vectorizes it but keeps the 64-lane accumulator *on the stack* — every
//! step an add from memory and a store back, a store-forward round trip
//! per step — at two to three times the arithmetic's cost.
//!
//! Each lane is one serial add chain, so a product keeps as many chains in
//! flight as it has registers: eight at AVX2 width, four at AVX-512 width.
//! The many-vector kernels therefore block several products per pass, so
//! that every load of `a` is shared and enough independent adds cover the
//! add latency (a pass with two chains ran at about twice the cost):
//!
//! * AVX2, 1×2: sixteen lane groups do not fit sixteen `ymm` registers
//!   beside the loads, so the chunks are walked twice, four groups of each
//!   product a pass — eight chains;
//! * AVX-512F, 1×16 in 1×4 passes: four products of four `zmm` groups
//!   are sixteen of the thirty-two registers, one pass — sixteen chains,
//!   with room for the loads. A 1×8 pass would fill all thirty-two and
//!   spill. Up to four passes make one call, and its sixteen products
//!   finish together (below).
//!
//! A single product has no block to share, so [`dot_unrolled`] and the
//! last one to three vectors of a 1×4 blocking run the AVX2 1×1 kernel on
//! both tiers: its eight chains beat four `zmm` chains by about a tenth.
//!
//! The AVX-512F 1×16 finishes its products *jointly*. Each pass folds its
//! four products to `w = 16` and parks those four registers; then the
//! contract's `w = 8, 4, 2, 1` steps run for all sixteen at once — at
//! each step two shuffles put the halves being added into matching lanes
//! of two registers and one add performs that step for every product they
//! hold, so sixteen registers become eight, four, two, then one holding
//! the sixteen dots, and the sixteen scalar tails are added in one more.
//! Finished alone, a product's last four steps are a chain of extracts
//! and narrowing adds ending in a scalar, about eleven instructions of
//! its forty-five; jointly they are under three a product, and the dots
//! leave in one store. Alone on an L1-resident tile the two ran level (the
//! chunk passes bound both); in the exact k-NN scans, which ask sixteen
//! products per stored row and key them as one array ([`crate::knn`]),
//! the joint finish is what made the end-to-end difference (CHANGES.md,
//! PR 45).
//!
//! One integer kernel sits beside the dot tiers: `dot_u8_tile_vnni`, the
//! exact k-NN scan's 8-bit filter (`filter.rs`). It needs AVX-512F
//! and AVX-512 VNNI (one more cached check, `vnni_available`); on any
//! other CPU the filter does not run and nothing calls it. Per stored row
//! it computes the exact `Σ XY` of the row's codes against sixteen
//! queries' at once: the queries' codes are transposed in four-byte groups
//! (`transpose_codes`), so one `vpdpbusd` multiplies the row's four codes
//! of a group, broadcast, with every query's four and accumulates query `t`
//! in 32-bit lane `t` — no horizontal reduction. `vpdpbusd` takes one
//! unsigned and one signed operand, so the queries' codes are stored as
//! `code − 128` and `128 · Σ X` is added back; four accumulators cover the
//! instruction's latency. The arithmetic is integer and exact, so the
//! kernel's definition is a plain loop, `dot_u8_tile`, which it is tested
//! against at every tile width and every dimension count to 300.
//!
//! A future kernel (wider registers, another ISA) is correct when the
//! `to_bits` tests in this module pass against `dot_lanes` for its tier;
//! NaN results must be NaN, their payloads are not part of the contract.
//! It must also be symmetric in its two arguments — `dot(a, b)` and
//! `dot(b, a)` the same bits, which element-wise multiply-then-add gives
//! because IEEE multiplication commutes — since the k-NN self-join
//! computes each unordered pair's dot once and ranks both rows by it, and
//! a kernel that treated `a` and `b` differently would make that answer
//! differ from the one-directional scan's.

#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::*;

/// Dot product of two equal-length vectors.
///
/// # Panics
/// Panics if the vectors have different lengths.
pub(crate) fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot: dimension mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Dot product accumulated in 64 independent lanes.
///
/// `dot` folds into a single accumulator, which pins LLVM to a scalar
/// dependency chain (float addition is not reassociable, so the compiler
/// may not vectorize it). This variant accumulates each `i mod 64` lane
/// separately and reduces pairwise at the end — the explicit reassociation
/// gives wide SIMD enough independent accumulator chains to hide add
/// latency, and is several times faster on 256-dimension embeddings. The
/// summation order *differs* from `dot`, so results may differ in the
/// last bits; the k-NN indexes use this function exclusively (for both
/// stored norms and query scans), so all distances they report are
/// internally consistent.
///
/// The result is identical on every CPU. The portable core is
/// `dot_lanes`; on `x86_64` with AVX2 (runtime-detected once) an explicit
/// `core::arch` kernel performs *the same* lane arithmetic — see
/// [the lane contract](self#the-lane-contract) — so the bits cannot differ
/// between the paths.
///
/// # Panics
/// Panics if the vectors have different lengths.
pub fn dot_unrolled(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot_unrolled: dimension mismatch");
    // SAFETY: `tier()` is the tier this CPU runs.
    unsafe { dot_on(tier(), a, b) }
}

/// Dot `a` against many vectors in one call: `out[i] = dot_unrolled(a, bs[i])`.
///
/// Bit-identical to calling [`dot_unrolled`] per pair (same lane
/// arithmetic), but the tier dispatch happens once per *call* instead of
/// once per pair, and the kernels block the `bs` — sixteen at a time in
/// four-product passes at AVX-512 width, two at AVX2 width ([kernel
/// tiers](self#kernel-tiers)) — sharing every load of `a` between a pass's
/// products. The k-NN scans call this once per stored row per tile of
/// sixteen, keeping the per-candidate cost to pure arithmetic.
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
    // SAFETY: `tier()` is the tier this CPU runs.
    unsafe { dot_many_on(tier(), a, bs, out) }
}

/// The kernel sets, narrowest first. A CPU that runs a tier runs every
/// tier before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Tier {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

/// The widest tier this CPU runs: one runtime detection, cached in an
/// atomic.
fn tier() -> Tier {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::atomic::{AtomicU8, Ordering};
        // 0 = undetected, else 1 + the tier's position in `Tier`.
        static TIER: AtomicU8 = AtomicU8::new(0);
        match TIER.load(Ordering::Relaxed) {
            1 => return Tier::Portable,
            2 => return Tier::Avx2,
            3 => return Tier::Avx512,
            _ => {}
        }
        let tier = if !std::arch::is_x86_feature_detected!("avx2") {
            Tier::Portable
        } else if std::arch::is_x86_feature_detected!("avx512f") {
            Tier::Avx512
        } else {
            Tier::Avx2
        };
        TIER.store(tier as u8 + 1, Ordering::Relaxed);
        tier
    }
    #[cfg(not(target_arch = "x86_64"))]
    Tier::Portable
}

/// [`dot_unrolled`] on `tier`'s kernel.
///
/// # Safety
/// The CPU runs `tier`: it is [`tier()`] or narrower.
unsafe fn dot_on(tier: Tier, a: &[f32], b: &[f32]) -> f32 {
    match tier {
        Tier::Portable => dot_lanes(a, b),
        // SAFETY: the caller guarantees the CPU runs the tier, and a CPU
        // that runs AVX-512F runs AVX2 (the `Tier::Avx512` detection checks
        // both). One product runs the AVX2 kernel on both tiers; see
        // "Kernel tiers" in the module docs.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 | Tier::Avx512 => unsafe { dot_lanes_avx2(a, b) },
    }
}

/// [`dot_unrolled_many`] on `tier`'s kernels.
///
/// # Safety
/// As [`dot_on`].
unsafe fn dot_many_on(tier: Tier, a: &[f32], bs: &[&[f32]], out: &mut [f32]) {
    match tier {
        Tier::Portable => {
            for (slot, b) in out.iter_mut().zip(bs) {
                *slot = dot_lanes(a, b);
            }
        }
        // SAFETY: the caller guarantees the CPU runs the tier.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => unsafe { dot_many_avx2(a, bs, out) },
        // SAFETY: as above.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => unsafe { dot_many_avx512(a, bs, out) },
    }
}

/// Elements per accumulation step: element `i` belongs to lane `i mod 64`.
const LANES: usize = 64;

/// The lane-accumulation kernel behind [`dot_unrolled`]: the portable
/// implementation and the definition of the
/// [lane contract](self#the-lane-contract) the `core::arch` kernels are
/// tested against (64 independent lanes, pairwise reduction, scalar tail).
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

/// [`dot_unrolled_many`]'s AVX-512F body: the `bs` sixteen at a time
/// through [`dot_tile_avx512`], down to a whole number of quads, the last
/// one to three through [`dot_lanes_avx2`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn dot_many_avx512(a: &[f32], bs: &[&[f32]], out: &mut [f32]) {
    let quads = bs.len() - bs.len() % 4;
    for (tile, slots) in bs[..quads].chunks(16).zip(out[..quads].chunks_mut(16)) {
        slots.copy_from_slice(&dot_tile_avx512(a, tile)[..tile.len()]);
    }
    for (b, slot) in bs[quads..].iter().zip(&mut out[quads..]) {
        *slot = dot_lanes_avx2(a, b);
    }
}

/// The 1×16 AVX-512F kernel: `dot_lanes(a, bs[p])` in slot `p` for up to
/// four quads of `bs`, the slots after them zero. Product `p` keeps its 64
/// lanes in four `zmm` registers, lane `16g + j` in register `g`, so one
/// quad's sixteen accumulators are half the thirty-two registers: the
/// chunks are walked once per quad, each load of `a` shared by the quad's
/// four products, and each product folded `(z0 + z2) + (z1 + z3)` and
/// parked. [`fold_tile_avx512`] then finishes the sixteen together and the
/// scalar tails are added in one register.
///
/// `bs` holds a whole number of quads, at most four.
///
/// # Panics
/// Panics if a `bs[p]` is shorter than `a`'s whole chunks.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn dot_tile_avx512(a: &[f32], bs: &[&[f32]]) -> [f32; 16] {
    debug_assert!(bs.len() <= 16 && bs.len().is_multiple_of(4));
    let rest = a.len() - a.len() % LANES;
    let body = &a[..rest];
    let mut w16 = [_mm512_setzero_ps(); 16];
    for (parked, quad) in w16.chunks_exact_mut(4).zip(bs.chunks_exact(4)) {
        let bodies = [
            &quad[0][..rest],
            &quad[1][..rest],
            &quad[2][..rest],
            &quad[3][..rest],
        ];
        let mut acc = [[_mm512_setzero_ps(); 4]; 4];
        for chunk in (0..rest).step_by(LANES) {
            for g in 0..4 {
                let off = chunk + 16 * g;
                // SAFETY: `off + 16 <= rest`, the length of `body` and of
                // every slice in `bodies`.
                let va = unsafe { _mm512_loadu_ps(body.as_ptr().add(off)) };
                for (acc, b) in acc.iter_mut().zip(bodies) {
                    // SAFETY: as above.
                    let vb = unsafe { _mm512_loadu_ps(b.as_ptr().add(off)) };
                    acc[g] = _mm512_add_ps(acc[g], _mm512_mul_ps(va, vb));
                }
            }
        }
        for (w, z) in parked.iter_mut().zip(acc) {
            *w = _mm512_add_ps(_mm512_add_ps(z[0], z[2]), _mm512_add_ps(z[1], z[3]));
        }
    }
    // With no tail every product's is the empty sum; the loop that would
    // find so costs as much as a pass.
    let mut tails = [dot_tail(&[], &[]); 16];
    if rest < a.len() {
        for (tail, b) in tails.iter_mut().zip(bs) {
            *tail = dot_tail(&a[rest..], &b[rest..]);
        }
    }
    let dots = fold_tile_avx512(w16);
    let mut out = [0.0f32; 16];
    // SAFETY: `tails` and `out` hold sixteen floats, one `zmm`.
    unsafe {
        let tails = _mm512_loadu_ps(tails.as_ptr());
        _mm512_storeu_ps(out.as_mut_ptr(), _mm512_add_ps(dots, tails));
    }
    out
}

/// The lane contract's `w = 8, 4, 2, 1` steps for sixteen products at
/// once. `w16[p]` holds product `p`'s sixteen lanes after the `32 → 16`
/// steps; each step pairs registers and, with two shuffles and one add,
/// halves every product's lanes while doubling the products a register
/// holds — `16 × 16 → 8 × (2 × 8) → 4 × (4 × 4) → 2 × (8 × 2) → 1 × 16`.
/// Every add is the contract's `acc[l] + acc[l + w]` for one product, so
/// each result has [`dot_lanes`]' bits. The pairing is chosen so that lane
/// `p` of the result is product `p`: the steps leave product `p` in lane
/// `4β + j` when it sat in 128-bit block `β` of the `w = 4` step's
/// register `j`, so that register `j` holds products `j, 4 + j, 8 + j,
/// 12 + j`, block by block.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f")]
fn fold_tile_avx512(w16: [__m512; 16]) -> __m512 {
    // w = 8, 4: 128-bit blocks `[x₀ x₁ y₀ y₁] + [x₂ x₃ y₂ y₃]`, then
    // `[x₀ x₂ y₀ y₂] + [x₁ x₃ y₁ y₃]`.
    let w8 = |x, y| {
        _mm512_add_ps(
            _mm512_shuffle_f32x4::<0b01_00_01_00>(x, y),
            _mm512_shuffle_f32x4::<0b11_10_11_10>(x, y),
        )
    };
    let w4 = |x, y| {
        _mm512_add_ps(
            _mm512_shuffle_f32x4::<0b10_00_10_00>(x, y),
            _mm512_shuffle_f32x4::<0b11_01_11_01>(x, y),
        )
    };
    // w = 2, 1: the same two patterns on the floats inside each block.
    let w2 = |x, y| {
        _mm512_add_ps(
            _mm512_shuffle_ps::<0b01_00_01_00>(x, y),
            _mm512_shuffle_ps::<0b11_10_11_10>(x, y),
        )
    };
    let w1 = |x, y| {
        _mm512_add_ps(
            _mm512_shuffle_ps::<0b10_00_10_00>(x, y),
            _mm512_shuffle_ps::<0b11_01_11_01>(x, y),
        )
    };
    // Register `2j + h` of the `w = 8` step holds products `8h + j` and
    // `8h + j + 4`.
    let pairs: [__m512; 8] = std::array::from_fn(|i| {
        let p = 8 * (i % 2) + i / 2;
        w8(w16[p], w16[p + 4])
    });
    let quads: [__m512; 4] = std::array::from_fn(|j| w4(pairs[2 * j], pairs[2 * j + 1]));
    w1(w2(quads[0], quads[1]), w2(quads[2], quads[3]))
}

/// Queries in one 8-bit code tile: the exact k-NN scan's tile width.
pub(crate) const CODE_TILE: usize = 16;

/// Bytes of one four-dimension group of a transposed code tile: four
/// codes of each of [`CODE_TILE`] queries.
pub(crate) const CODE_GROUP: usize = 4 * CODE_TILE;

/// Write query `t`'s codes into a transposed code tile: the codes of
/// dimensions `4g..4g + 4` go to bytes `CODE_GROUP·g + 4t..+ 4`, each as
/// `code − 128` (a signed byte), so that one 64-byte load of group `g`
/// holds query `t`'s four codes in 32-bit lane `t`. A code vector shorter
/// than the tile's groups leaves its padding at `−128`, code `0`.
///
/// # Panics
/// Panics if `t >= CODE_TILE` or the codes do not fit the tile.
#[inline]
pub(crate) fn transpose_codes(tile: &mut [i8], t: usize, codes: &[u8]) {
    assert!(t < CODE_TILE && codes.len() <= tile.len() / CODE_TILE);
    let mut groups = tile.chunks_exact_mut(CODE_GROUP);
    let mut quads = codes.chunks_exact(4);
    // `quads` first: the zip must not take a group it has no quad for.
    for (quad, group) in (&mut quads).zip(&mut groups) {
        let word = u32::from_le_bytes([quad[0], quad[1], quad[2], quad[3]]) ^ 0x8080_8080;
        for (slot, byte) in group[4 * t..4 * t + 4].iter_mut().zip(word.to_le_bytes()) {
            *slot = byte as i8;
        }
    }
    let mut rest = quads.remainder().iter();
    for group in groups {
        for slot in &mut group[4 * t..4 * t + 4] {
            *slot = (rest.next().copied().unwrap_or(0) ^ 0x80) as i8;
        }
    }
}

/// The exact integer dot of one stored row's codes against each query of a
/// transposed code tile ([`transpose_codes`]): lane `t` is
/// `Σ_d row[d] · code_t[d]`. `row` holds `tile.len() / CODE_GROUP` groups
/// of four codes, zero past the row's dimensions. The portable definition
/// of [`dot_u8_tile_vnni`], which is tested against it.
///
/// Every product is at most `255²`, so a lane cannot overflow below
/// `2³¹ / 255² ≈ 33 000` dimensions; callers stay under that.
pub(crate) fn dot_u8_tile(row: &[u8], tile: &[i8]) -> [i32; CODE_TILE] {
    debug_assert_eq!(row.len() * CODE_TILE, tile.len());
    let mut out = [0i32; CODE_TILE];
    for (x, group) in row.chunks_exact(4).zip(tile.chunks_exact(CODE_GROUP)) {
        for (t, lane) in out.iter_mut().enumerate() {
            for b in 0..4 {
                let code = i32::from(group[4 * t + b]) + 128;
                *lane += i32::from(x[b]) * code;
            }
        }
    }
    out
}

/// Whether this CPU runs [`dot_u8_tile_vnni`]: the AVX-512F tier and
/// AVX-512 VNNI. One runtime detection, cached.
pub(crate) fn vnni_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::atomic::{AtomicU8, Ordering};
        // 0 = undetected, 1 = no, 2 = yes.
        static VNNI: AtomicU8 = AtomicU8::new(0);
        match VNNI.load(Ordering::Relaxed) {
            1 => return false,
            2 => return true,
            _ => {}
        }
        let vnni = tier() == Tier::Avx512 && std::arch::is_x86_feature_detected!("avx512vnni");
        VNNI.store(1 + u8::from(vnni), Ordering::Relaxed);
        vnni
    }
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// [`dot_u8_tile`] with `vpdpbusd`: per four-dimension group, the row's
/// four codes broadcast to every 32-bit lane (the unsigned operand) meet
/// the group's 64 tile bytes (the signed operand, `code − 128`), and each
/// lane adds its four products — query `t` accumulates in lane `t`, with
/// no horizontal reduction. The sum is `Σ row·(code − 128)`, so
/// `128 · row_sum` is added back once; `row_sum` is `Σ row`, which the
/// caller keeps per stored row. Four accumulators take the groups in turn,
/// so four `vpdpbusd` chains cover the instruction's latency.
///
/// # Safety
/// The CPU runs AVX-512F and AVX-512 VNNI ([`vnni_available`]).
///
/// # Panics
/// Panics if `row.len() * CODE_TILE != tile.len()` or `row.len()` is not
/// a multiple of four.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f,avx512vnni")]
pub(crate) fn dot_u8_tile_vnni(row: &[u8], row_sum: i32, tile: &[i8]) -> [i32; CODE_TILE] {
    assert!(row.len().is_multiple_of(4) && row.len() * CODE_TILE == tile.len());
    // One group: the row's four codes in every lane, and the tile's bytes.
    let step = |acc: __m512i, x: &[u8], y: &[i8]| {
        let x = i32::from_le_bytes([x[0], x[1], x[2], x[3]]);
        // SAFETY: `y` is one group, `CODE_GROUP` = 64 bytes.
        let y = unsafe { _mm512_loadu_si512(y.as_ptr().cast()) };
        _mm512_dpbusd_epi32(acc, _mm512_set1_epi32(x), y)
    };
    let mut acc = [_mm512_setzero_si512(); 4];
    let mut rows = row.chunks_exact(16);
    let mut tiles = tile.chunks_exact(4 * CODE_GROUP);
    for (x, y) in (&mut rows).zip(&mut tiles) {
        for (j, acc) in acc.iter_mut().enumerate() {
            *acc = step(*acc, &x[4 * j..], &y[CODE_GROUP * j..]);
        }
    }
    let rest = rows.remainder().chunks_exact(4);
    for ((x, y), acc) in rest
        .zip(tiles.remainder().chunks_exact(CODE_GROUP))
        .zip(&mut acc)
    {
        *acc = step(*acc, x, y);
    }
    let sum = _mm512_add_epi32(
        _mm512_add_epi32(acc[0], acc[1]),
        _mm512_add_epi32(acc[2], acc[3]),
    );
    let sum = _mm512_add_epi32(sum, _mm512_set1_epi32(128 * row_sum));
    let mut out = [0i32; CODE_TILE];
    // SAFETY: `out` is sixteen `i32`s, one `zmm`.
    unsafe { _mm512_storeu_si512(out.as_mut_ptr().cast(), sum) };
    out
}

/// Euclidean (L2) distance between two equal-length vectors.
///
/// # Panics
/// Panics if the vectors have different lengths.
pub(crate) fn l2_distance(a: &[f32], b: &[f32]) -> f32 {
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
pub(crate) fn normalize(v: &mut [f32]) {
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

    /// Deterministic values in `[-2, 2)` (SplitMix64), a different sequence
    /// for every salt. `wobble`'s salt shifts an integer near 2³¹ before it
    /// becomes an `f32`, which rounds most of the shift away, so its vectors
    /// for nearby salts are nearly equal — and a kernel that confused two
    /// products' vectors would still match.
    fn distinct(n: usize, salt: u64) -> Vec<f32> {
        let mut state = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (0..n)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                ((z ^ (z >> 31)) >> 40) as f32 / (1u64 << 22) as f32 - 2.0
            })
            .collect()
    }

    /// The contract's equality: the same bits, or NaN on both sides.
    fn same(got: f32, want: f32) -> bool {
        got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan())
    }

    /// Every tier this CPU runs, narrowest first.
    fn tiers() -> Vec<Tier> {
        let mut all = vec![Tier::Portable];
        #[cfg(target_arch = "x86_64")]
        all.extend([Tier::Avx2, Tier::Avx512]);
        all.retain(|&t| t <= tier());
        all
    }

    /// Every tier's 1×1 kernel, and its many-vector kernels at every tile
    /// width in `widths`, against the portable core.
    fn assert_kernels_match_lanes(
        a: &[f32],
        bs: &[Vec<f32>],
        widths: std::ops::RangeInclusive<usize>,
    ) {
        let want: Vec<f32> = bs.iter().map(|b| dot_lanes(a, b)).collect();
        let refs: Vec<&[f32]> = bs.iter().map(Vec::as_slice).collect();
        for tier in tiers() {
            for (b, &w) in bs.iter().zip(&want) {
                // SAFETY: `tiers()` holds only tiers this CPU runs.
                let got = unsafe { dot_on(tier, a, b) };
                assert!(
                    same(got, w),
                    "{tier:?} 1x1 len {}: {got:e} vs {w:e}",
                    a.len()
                );
            }
            for width in widths.clone() {
                let mut out = vec![f32::NAN; width];
                // SAFETY: as above.
                unsafe { dot_many_on(tier, a, &refs[..width], &mut out) };
                for (t, (&got, &w)) in out.iter().zip(&want).enumerate() {
                    assert!(
                        same(got, w),
                        "{tier:?} len {} width {width} slot {t}: {got:e} vs {w:e}",
                        a.len()
                    );
                }
            }
        }
    }

    #[test]
    fn kernels_match_the_portable_lanes_at_every_length() {
        // Every tail length and 0..=16 chunks, at every width up to one
        // 1×4 block and one more.
        for n in 0..=1030 {
            let a = wobble(n, 1);
            let bs: Vec<Vec<f32>> = (0..5).map(|t| wobble(n, 77 + t)).collect();
            assert_kernels_match_lanes(&a, &bs, 0..=5);
        }
    }

    #[test]
    fn kernels_match_the_portable_lanes_at_every_tile_width() {
        // Every remainder of the 1×2 and the 1×4 blocking, whole chunks and
        // a tail. The `distinct` set gives every tile slot its own vector,
        // so a kernel that fed one product another's operand fails too.
        for n in [1usize, 63, 64, 65, 130, 256, 64 * 3 + 21, 300] {
            let a = wobble(n, 5);
            let bs: Vec<Vec<f32>> = (0..17).map(|t| wobble(n, 1000 + t)).collect();
            assert_kernels_match_lanes(&a, &bs, 0..=17);
            let a = distinct(n, 1);
            let bs: Vec<Vec<f32>> = (0..17).map(|t| distinct(n, 2 + t)).collect();
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
        // Every width up to the k-NN scans' sixteen vectors a call, and one
        // more.
        for n in [0usize, 1, 5, 63, 64, 65, 130, 213, 256, 300] {
            for salt in 0..6 {
                let pool = if salt % 2 == 0 { 5 } else { specials.len() };
                let a = vector(n, salt, pool);
                let bs: Vec<Vec<f32>> = (0..17)
                    .map(|t| vector(n, salt * 31 + t + 1, pool))
                    .collect();
                assert_kernels_match_lanes(&a, &bs, 0..=17);
            }
        }
        // All products −0.0: the zero-initialised lanes make the sum +0.0
        // or −0.0 exactly as the portable core does.
        let neg = vec![-0.0f32; 130];
        let pos = vec![1.0f32; 130];
        assert_kernels_match_lanes(&neg, &vec![pos; 16], 0..=16);
    }

    #[test]
    fn every_kernel_is_symmetric_in_its_arguments() {
        let specials = [
            0.0f32,
            -0.0,
            f32::from_bits(1),
            -f32::MIN_POSITIVE / 8.0,
            1.25,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        // Without a `len % 64` tail, with one, and tail only. Salt 0 is
        // arbitrary values; salts 1–3 draw from the first 5, 7 and 8
        // specials, so signed zeros and subnormals decide some results,
        // infinities others, and NaN the rest.
        for n in [0usize, 1, 5, 63, 64, 65, 128, 130, 256, 300] {
            for salt in 0..4usize {
                let vector = |t: usize| -> Vec<f32> {
                    if salt == 0 {
                        return wobble(n, t as u32);
                    }
                    let pool = [0, 5, 7, 8][salt];
                    (0..n)
                        .map(|i| specials[(i * 5 + t * 7 + salt + i / 3) % pool])
                        .collect()
                };
                let a = vector(1);
                let bs: Vec<Vec<f32>> = (0..5).map(|t| vector(40 + t)).collect();
                let refs: Vec<&[f32]> = bs.iter().map(Vec::as_slice).collect();
                for tier in tiers() {
                    let mut out = vec![0.0f32; bs.len()];
                    // SAFETY: `tiers()` holds only tiers this CPU runs.
                    unsafe { dot_many_on(tier, &a, &refs, &mut out) };
                    for (t, b) in bs.iter().enumerate() {
                        let ab = dot_lanes(&a, b);
                        // SAFETY: as above.
                        let (one, other) = unsafe { (dot_on(tier, &a, b), dot_on(tier, b, &a)) };
                        let case = format!("{tier:?} len {n} salt {salt} b {t}: {ab:e}");
                        assert!(same(ab, dot_lanes(b, &a)), "portable {case}");
                        assert!(same(one, other), "1x1 {case}");
                        assert!(same(out[t], other), "many {case}");
                        assert!(same(out[t], ab), "many vs portable {case}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dot_unrolled_many_dimension_mismatch_panics() {
        dot_unrolled_many(&[1.0, 2.0], &[&[1.0, 2.0], &[1.0]], &mut [0.0; 2]);
    }

    #[test]
    fn the_vnni_tile_kernel_equals_the_portable_loop() {
        // Every width of a tile and every dimension count up to 300: whole
        // groups of four, a padded last group, and runs of the extreme
        // codes 0 and 255, where a sign or offset slip shows.
        let mut state = 0x5EED_u64;
        let mut code = |extreme: bool| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let byte = (state >> 56) as u8;
            if extreme {
                [0, 255][usize::from(byte & 1)]
            } else {
                byte
            }
        };
        for dims in 0..=300usize {
            let stride = dims.next_multiple_of(4);
            let extreme = dims % 3 == 0;
            let mut row = vec![0u8; stride];
            for x in &mut row[..dims] {
                *x = code(extreme);
            }
            let row_sum: i32 = row.iter().map(|&x| i32::from(x)).sum();
            let queries: Vec<Vec<u8>> = (0..CODE_TILE)
                .map(|_| (0..dims).map(|_| code(extreme)).collect())
                .collect();
            for width in 0..=CODE_TILE {
                let mut tile = vec![0i8; stride / 4 * CODE_GROUP];
                for (t, query) in queries[..width].iter().enumerate() {
                    transpose_codes(&mut tile, t, query);
                }
                let portable = dot_u8_tile(&row, &tile);
                for (t, query) in queries[..width].iter().enumerate() {
                    let want: i32 = row
                        .iter()
                        .zip(query)
                        .map(|(&x, &y)| i32::from(x) * i32::from(y))
                        .sum();
                    assert_eq!(portable[t], want, "dims {dims} width {width} lane {t}");
                }
                #[cfg(target_arch = "x86_64")]
                if vnni_available() {
                    // SAFETY: the CPU runs the kernel.
                    let vnni = unsafe { dot_u8_tile_vnni(&row, row_sum, &tile) };
                    assert_eq!(vnni, portable, "dims {dims} width {width}");
                }
            }
        }
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

//! The i64 lane filter behind plain snapshot scans: count plus exact
//! widened sum of the values in `[lo, hi)`, with `None` as an unbounded
//! side.
//!
//! [`filter_count_portable`] is a branchless compare with a masked
//! split-lane accumulate, written stripe-wise so the backend vectorises it.
//! [`avx2::filter_count`] does the same with explicit `core::arch::x86_64`
//! compare / movemask / popcount lanes. [`filter_count`] picks one through
//! [`active_isa`], a one-time `is_x86_feature_detected!` check;
//! `HOLIX_NO_SIMD=1` forces the portable path.

use std::sync::OnceLock;

// ---------------------------------------------------------------------------
// Runtime ISA dispatch
// ---------------------------------------------------------------------------

/// Which kernel family [`active_isa`] selected for this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// Stripe-wise autovectorised kernel (always available).
    Portable,
    /// Explicit `core::arch::x86_64` AVX2 kernels.
    Avx2,
}

/// One-time CPU feature detection. `HOLIX_NO_SIMD=1` forces
/// [`Isa::Portable`] (bench baselines, dispatch-agreement debugging).
pub fn active_isa() -> Isa {
    static ISA: OnceLock<Isa> = OnceLock::new();
    *ISA.get_or_init(|| {
        if std::env::var_os("HOLIX_NO_SIMD").is_some() {
            return Isa::Portable;
        }
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") {
            return Isa::Avx2;
        }
        Isa::Portable
    })
}

/// Explicit AVX2 kernels. Safe wrappers verify feature presence; the
/// `#[target_feature]` bodies hold the intrinsics.
#[cfg(target_arch = "x86_64")]
pub mod avx2 {
    use core::arch::x86_64::*;

    /// AVX2 fused filter over unsorted i64 lanes: branchless two-sided
    /// compare, movemask popcount for the count, masked split-lane (low
    /// 32 / high 32) accumulate for the exact widened sum. Panics when
    /// AVX2 is missing.
    pub fn filter_count(vals: &[i64], lo: Option<i64>, hi: Option<i64>) -> (u64, i128) {
        assert!(
            std::is_x86_feature_detected!("avx2"),
            "AVX2 unavailable on this CPU"
        );
        // SAFETY: feature verified above; loads are unaligned-tolerant.
        unsafe { filter_count_inner(vals, lo, hi) }
    }

    /// Fold lane accumulators to i128 at least every `STRIPE` values so
    /// the split-lane partial sums can never overflow their i64 lanes.
    const STRIPE: usize = 1 << 18;

    #[target_feature(enable = "avx2")]
    unsafe fn filter_count_inner(vals: &[i64], lo: Option<i64>, hi: Option<i64>) -> (u64, i128) {
        // Unbounded lower bound compares against i64::MIN (never greater
        // than any lane); an unbounded upper bound cannot be encoded as a
        // compare (MAX itself must qualify), so it ORs the lane mask in.
        let lo_v = _mm256_set1_epi64x(lo.unwrap_or(i64::MIN));
        let hi_v = _mm256_set1_epi64x(hi.unwrap_or(0));
        let hi_all = _mm256_set1_epi64x(if hi.is_some() { 0 } else { -1 });
        let low32 = _mm256_set1_epi64x(0xFFFF_FFFF);
        let sbias = _mm256_set1_epi64x(0x8000_0000);
        let mut count = 0u64;
        let mut sum = 0i128;
        for stripe in vals.chunks(STRIPE) {
            let mut acc_lo = _mm256_setzero_si256();
            let mut acc_hi = _mm256_setzero_si256();
            let mut chunks = stripe.chunks_exact(4);
            for chunk in &mut chunks {
                let v = _mm256_loadu_si256(chunk.as_ptr() as *const __m256i);
                // qualifies = !(lo > v) & (v < hi | hi unbounded)
                let lo_gt = _mm256_cmpgt_epi64(lo_v, v);
                let lt_hi = _mm256_or_si256(_mm256_cmpgt_epi64(hi_v, v), hi_all);
                let q = _mm256_andnot_si256(lo_gt, lt_hi);
                count += (_mm256_movemask_pd(_mm256_castsi256_pd(q)) as u32).count_ones() as u64;
                let mv = _mm256_and_si256(v, q);
                acc_lo = _mm256_add_epi64(acc_lo, _mm256_and_si256(mv, low32));
                // Arithmetic >> 32 for the high half (AVX2 has no 64-bit
                // arithmetic shift): logical shift then sign-extend the
                // 32-bit result via xor/sub bias.
                let h = _mm256_srli_epi64::<32>(mv);
                let h = _mm256_sub_epi64(_mm256_xor_si256(h, sbias), sbias);
                acc_hi = _mm256_add_epi64(acc_hi, h);
            }
            let mut lo4 = [0u64; 4];
            let mut hi4 = [0i64; 4];
            _mm256_storeu_si256(lo4.as_mut_ptr() as *mut __m256i, acc_lo);
            _mm256_storeu_si256(hi4.as_mut_ptr() as *mut __m256i, acc_hi);
            sum += lo4.iter().map(|&x| x as i128).sum::<i128>()
                + (hi4.iter().map(|&x| x as i128).sum::<i128>() << 32);
            for &v in chunks.remainder() {
                let q = v >= lo.unwrap_or(i64::MIN) && hi.is_none_or(|h| v < h);
                if q {
                    count += 1;
                    sum += v as i128;
                }
            }
        }
        (count, sum)
    }
}

/// Portable fused filter over unsorted i64 lanes: branchless two-sided
/// compare (`None` = unbounded; an unbounded upper bound admits
/// `i64::MAX`), masked split-lane accumulate for the exact widened sum.
/// Written stripe-wise so the backend vectorises the inner loop.
pub fn filter_count_portable(vals: &[i64], lo: Option<i64>, hi: Option<i64>) -> (u64, i128) {
    let lo_b = lo.unwrap_or(i64::MIN);
    let hi_bounded = hi.is_some();
    let hi_b = hi.unwrap_or(i64::MAX);
    let mut count = 0u64;
    let mut sum = 0i128;
    // Fold to i128 per stripe: 2^14 masked low halves (< 2^32 each) and
    // high halves (|·| ≤ 2^31) stay far inside their u64 / i64 lanes.
    for stripe in vals.chunks(1 << 14) {
        let mut sum_lo = 0u64;
        let mut sum_hi = 0i64;
        for &v in stripe {
            let q = (v >= lo_b) & (!hi_bounded | (v < hi_b));
            count += q as u64;
            let m = -(q as i64);
            let mv = v & m;
            sum_lo += (mv as u32) as u64;
            sum_hi += mv >> 32;
        }
        sum += ((sum_hi as i128) << 32) + sum_lo as i128;
    }
    (count, sum)
}

/// Fused filter over unsorted i64 lanes, ISA-dispatched: count + exact
/// widened sum of values in `[lo, hi)` (`None` = unbounded).
pub fn filter_count(vals: &[i64], lo: Option<i64>, hi: Option<i64>) -> (u64, i128) {
    #[cfg(target_arch = "x86_64")]
    if active_isa() == Isa::Avx2 {
        return avx2::filter_count(vals, lo, hi);
    }
    filter_count_portable(vals, lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic value stream (no rand dev-dep needed here).
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn filter_oracle(vals: &[i64], lo: Option<i64>, hi: Option<i64>) -> (u64, i128) {
        let mut c = 0u64;
        let mut s = 0i128;
        for &v in vals {
            if lo.is_none_or(|l| v >= l) && hi.is_none_or(|h| v < h) {
                c += 1;
                s += v as i128;
            }
        }
        (c, s)
    }

    #[test]
    fn lane_filter_handles_sentinels_and_extremes() {
        let mut s = 42u64;
        let mut vals: Vec<i64> = (0..301).map(|_| splitmix(&mut s) as i64).collect();
        vals.extend_from_slice(&[i64::MIN, i64::MAX, 0, -1, 1]);
        let probes: &[(Option<i64>, Option<i64>)] = &[
            (None, None),
            (Some(i64::MIN), None),
            (None, Some(i64::MAX)), // bounded: MAX itself excluded
            (Some(0), Some(0)),     // empty
            (Some(-1000), Some(1000)),
            (Some(i64::MAX), None), // only MAX qualifies
        ];
        for &(lo, hi) in probes {
            let oracle = filter_oracle(&vals, lo, hi);
            assert_eq!(
                filter_count_portable(&vals, lo, hi),
                oracle,
                "portable lo={lo:?} hi={hi:?}"
            );
            assert_eq!(
                filter_count(&vals, lo, hi),
                oracle,
                "dispatched lo={lo:?} hi={hi:?}"
            );
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_filter_agrees_with_portable() {
        if !std::is_x86_feature_detected!("avx2") {
            eprintln!("skipping: no AVX2 on this CPU");
            return;
        }
        // Random + adversarial lanes, random bounds.
        let mut s = 0xF00Du64;
        let mut vals: Vec<i64> = (0..1009).map(|_| splitmix(&mut s) as i64).collect();
        vals.extend_from_slice(&[i64::MIN, i64::MAX, 0]);
        for _ in 0..50 {
            let lo = (!splitmix(&mut s).is_multiple_of(3)).then(|| splitmix(&mut s) as i64);
            let hi = (!splitmix(&mut s).is_multiple_of(3)).then(|| splitmix(&mut s) as i64);
            assert_eq!(
                avx2::filter_count(&vals, lo, hi),
                filter_count_portable(&vals, lo, hi),
                "lo={lo:?} hi={hi:?}"
            );
        }
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            // Lane filter (portable and dispatched) == oracle.
            #[test]
            fn lane_filter_matches_oracle(
                vals in proptest::collection::vec(any::<i64>(), 0..400),
                lo_raw in (any::<bool>(), any::<i64>()),
                hi_raw in (any::<bool>(), any::<i64>()),
            ) {
                let lo = lo_raw.0.then_some(lo_raw.1);
                let hi = hi_raw.0.then_some(hi_raw.1);
                let oracle = filter_oracle(&vals, lo, hi);
                prop_assert_eq!(filter_count_portable(&vals, lo, hi), oracle);
                prop_assert_eq!(filter_count(&vals, lo, hi), oracle);
            }
        }
    }
}

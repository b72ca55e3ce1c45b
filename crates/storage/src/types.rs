//! Core value types shared by the whole workspace.

/// Position of a tuple inside a column (a MonetDB `oid`).
///
/// 32 bits bound columns to 2^32 tuples, which comfortably covers the
/// laptop-scale reproduction while halving the footprint of row-id vectors
/// that cracking permutes alongside values.
pub type RowId = u32;

/// A fixed-width, totally ordered value that can live in a crackable column.
///
/// The trait is deliberately small: cracking and holistic tuning only need
/// comparisons, a value domain (`MIN_VALUE ..= MAX_VALUE`), and a lossless
/// round-trip through `i64` so that random pivots can be drawn uniformly from
/// a column's observed domain regardless of the concrete type.
pub trait CrackValue:
    Copy + Send + Sync + Ord + std::fmt::Debug + std::fmt::Display + 'static
{
    /// Smallest representable value of the type.
    const MIN_VALUE: Self;
    /// Largest representable value of the type.
    const MAX_VALUE: Self;

    /// Lossless widening into `i64` (order-preserving).
    fn as_i64(self) -> i64;

    /// Inverse of [`CrackValue::as_i64`]. Values outside the type's range are
    /// clamped; callers only pass values obtained from `as_i64` of the same
    /// type or drawn from an observed `[min, max]` domain.
    fn from_i64(v: i64) -> Self;

    /// Width of one value in bytes (for storage-budget accounting).
    fn width() -> usize {
        std::mem::size_of::<Self>()
    }
}

/// Smallest representable value strictly greater than `v`, saturating at the
/// top of the domain (`succ(MAX_VALUE) == MAX_VALUE`). Equality probes lower
/// to the unit half-open range `[v, succ(v))` through this one definition.
#[inline(always)]
pub fn succ<V: CrackValue>(v: V) -> V {
    if v == V::MAX_VALUE {
        v
    } else {
        V::from_i64(v.as_i64() + 1)
    }
}

macro_rules! impl_crack_value_signed {
    ($($t:ty),*) => {$(
        impl CrackValue for $t {
            const MIN_VALUE: Self = <$t>::MIN;
            const MAX_VALUE: Self = <$t>::MAX;

            #[inline(always)]
            fn as_i64(self) -> i64 {
                self as i64
            }

            #[inline(always)]
            fn from_i64(v: i64) -> Self {
                v.clamp(<$t>::MIN as i64, <$t>::MAX as i64) as $t
            }
        }
    )*};
}

impl_crack_value_signed!(i8, i16, i32, i64);

macro_rules! impl_crack_value_small_unsigned {
    ($($t:ty),*) => {$(
        impl CrackValue for $t {
            const MIN_VALUE: Self = <$t>::MIN;
            const MAX_VALUE: Self = <$t>::MAX;

            #[inline(always)]
            fn as_i64(self) -> i64 {
                self as i64
            }

            #[inline(always)]
            fn from_i64(v: i64) -> Self {
                v.clamp(0, <$t>::MAX as i64) as $t
            }
        }
    )*};
}

impl_crack_value_small_unsigned!(u8, u16, u32);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn i64_round_trips() {
        for v in [i64::MIN, -1, 0, 1, 42, i64::MAX] {
            assert_eq!(i64::from_i64(v.as_i64()), v);
        }
    }

    #[test]
    fn i32_round_trips_and_clamps() {
        for v in [i32::MIN, -7, 0, 9, i32::MAX] {
            assert_eq!(i32::from_i64(v.as_i64()), v);
        }
        assert_eq!(i32::from_i64(i64::MAX), i32::MAX);
        assert_eq!(i32::from_i64(i64::MIN), i32::MIN);
    }

    #[test]
    fn u32_clamps_negative_to_zero() {
        assert_eq!(u32::from_i64(-5), 0);
        assert_eq!(u32::from_i64(u32::MAX as i64 + 10), u32::MAX);
    }

    #[test]
    fn as_i64_preserves_order() {
        let mut vals: Vec<i32> = vec![5, -3, 0, i32::MAX, i32::MIN, 17];
        let mut as64: Vec<i64> = vals.iter().map(|v| v.as_i64()).collect();
        vals.sort_unstable();
        as64.sort_unstable();
        assert_eq!(as64, vals.iter().map(|v| v.as_i64()).collect::<Vec<_>>());
    }

    #[test]
    fn widths() {
        assert_eq!(<i32 as CrackValue>::width(), 4);
        assert_eq!(<i64 as CrackValue>::width(), 8);
        assert_eq!(<u8 as CrackValue>::width(), 1);
    }
}

//! Declarative counter tables.
//!
//! An engine counter is read in several places that must all agree on the
//! full set: merges across workers and run slices, the checkpoint and
//! control-plane codecs, and the replay fingerprint.
//! [`counters!`](crate::counters!) declares a counter struct once, one
//! line per counter, and derives all of them from that table through
//! [`CounterTable`]. Adding a counter is one line in its table.
//!
//! The struct stays an ordinary struct with named `pub` fields, so hot
//! paths keep writing `stats.expanded += 1` directly.
//!
//! Every encoded counter block carries the table's counter count and
//! [`CounterTable::NAME_HASH`]. A decoder checks both with
//! [`check_header`] before reading values, so a peer or file built from a
//! different table is rejected instead of decoded into the wrong fields.

use std::ops::Add;

/// How one counter combines across workers, partitions or run slices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Merge {
    /// Totals add up.
    Sum,
    /// High-water marks keep the larger value.
    Max,
}

impl Merge {
    /// Combines two values of one counter.
    #[inline]
    pub fn apply<T: CounterValue>(self, a: T, b: T) -> T {
        match self {
            Merge::Sum => a + b,
            Merge::Max => a.max(b),
        }
    }
}

/// A type a counter field may have. Codecs carry every counter as its raw
/// 64 bits, so the round trip is exact for signed counters too.
pub trait CounterValue: Copy + Ord + Add<Output = Self> {
    /// The value's raw 64 bits.
    fn to_raw(self) -> u64;
    /// Inverse of [`CounterValue::to_raw`].
    fn from_raw(raw: u64) -> Self;
}

impl CounterValue for u64 {
    fn to_raw(self) -> u64 {
        self
    }
    fn from_raw(raw: u64) -> Self {
        raw
    }
}

impl CounterValue for i64 {
    fn to_raw(self) -> u64 {
        self as u64
    }
    fn from_raw(raw: u64) -> Self {
        raw as i64
    }
}

/// What [`counters!`](crate::counters!) derives for a counter struct.
pub trait CounterTable: Sized {
    /// `[u64; N]` for a table of `N` counters.
    type Array: AsRef<[u64]> + AsMut<[u64]> + Default;
    /// The struct's name, for error messages.
    const TABLE: &'static str;
    /// Counter names in declaration order, which is also encoding order.
    const NAMES: &'static [&'static str];
    /// Merge rule of each counter, parallel to [`CounterTable::NAMES`].
    const MERGE: &'static [Merge];
    /// Order-sensitive 32-bit hash of [`CounterTable::NAMES`]. 32 bits so
    /// it stays an exact integer in any JSON codec.
    const NAME_HASH: u32 = name_hash(Self::NAMES);

    /// Raw counter values in table order.
    fn to_array(&self) -> Self::Array;
    /// Inverse of [`CounterTable::to_array`].
    fn from_array(values: Self::Array) -> Self;
    /// Merges `other` into `self`, counter by counter, by each counter's
    /// [`Merge`] rule.
    fn merge(&mut self, other: &Self);
}

/// FNV-1a over the names, each followed by a separator byte.
pub const fn name_hash(names: &[&str]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    let mut i = 0;
    while i < names.len() {
        let bytes = names[i].as_bytes();
        let mut j = 0;
        while j <= bytes.len() {
            let b = if j < bytes.len() { bytes[j] } else { 0xff };
            h = (h ^ b as u32).wrapping_mul(0x0100_0193);
            j += 1;
        }
        i += 1;
    }
    h
}

/// Checks an encoded block's header (counter count and name hash) against
/// table `C`. The error names both schemas.
pub fn check_header<C: CounterTable>(count: u64, hash: u64) -> Result<(), String> {
    if count == C::NAMES.len() as u64 && hash == u64::from(C::NAME_HASH) {
        return Ok(());
    }
    Err(format!(
        "{} block has {count} counters with name hash {hash:#x}; this build's table has {} \
         with name hash {:#x}",
        C::TABLE,
        C::NAMES.len(),
        C::NAME_HASH
    ))
}

/// Declares a counter struct and derives its [`CounterTable`].
///
/// Each field line ends in its merge rule, `=> Sum` or `=> Max`:
///
/// ```
/// psgl_obs::counters! {
///     /// Example counters.
///     #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
///     pub struct Example {
///         /// Items seen.
///         pub seen: u64 => Sum,
///         /// Largest batch.
///         pub peak: i64 => Max,
///     }
/// }
/// use psgl_obs::CounterTable;
/// let mut a = Example { seen: 1, peak: 4 };
/// a.merge(&Example { seen: 2, peak: 3 });
/// assert_eq!(a, Example { seen: 3, peak: 4 });
/// assert_eq!(Example::NAMES, ["seen", "peak"]);
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[$field_meta:meta])*
                $field_vis:vis $field:ident : $ty:ty => $merge:ident
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$field_meta])* $field_vis $field: $ty, )*
        }

        impl $crate::CounterTable for $name {
            type Array = [u64; [$(stringify!($field)),*].len()];
            const TABLE: &'static str = stringify!($name);
            const NAMES: &'static [&'static str] = &[$(stringify!($field)),*];
            const MERGE: &'static [$crate::Merge] = &[$($crate::Merge::$merge),*];

            fn to_array(&self) -> Self::Array {
                [$($crate::CounterValue::to_raw(self.$field)),*]
            }

            fn from_array(values: Self::Array) -> Self {
                let [$($field),*] = values;
                $name { $($field: $crate::CounterValue::from_raw($field)),* }
            }

            fn merge(&mut self, other: &Self) {
                $( self.$field = $crate::Merge::$merge.apply(self.$field, other.$field); )*
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::counters! {
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        struct Sample {
            a: u64 => Sum,
            b: i64 => Max,
            c: u64 => Sum,
        }
    }

    crate::counters! {
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        struct Renamed {
            a: u64 => Sum,
            bb: i64 => Max,
            c: u64 => Sum,
        }
    }

    #[test]
    fn table_lists_fields_in_declaration_order() {
        assert_eq!(Sample::TABLE, "Sample");
        assert_eq!(Sample::NAMES, ["a", "b", "c"]);
        assert_eq!(Sample::MERGE, [Merge::Sum, Merge::Max, Merge::Sum]);
        let s = Sample { a: 1, b: -2, c: 3 };
        assert_eq!(s.to_array(), [1, (-2i64) as u64, 3]);
        assert_eq!(Sample::from_array(s.to_array()), s);
    }

    #[test]
    fn merge_sums_and_keeps_maxima_with_sign() {
        let mut s = Sample { a: 1, b: -5, c: 10 };
        s.merge(&Sample { a: 2, b: -7, c: 0 });
        assert_eq!(s, Sample { a: 3, b: -5, c: 10 });
        s.merge(&Sample { a: 0, b: 4, c: 1 });
        assert_eq!(s, Sample { a: 3, b: 4, c: 11 });
    }

    #[test]
    fn name_hash_tracks_names_and_their_order() {
        assert_ne!(Sample::NAME_HASH, Renamed::NAME_HASH);
        assert_ne!(name_hash(&["a", "b"]), name_hash(&["b", "a"]));
        // The separator keeps concatenations apart.
        assert_ne!(name_hash(&["ab", "c"]), name_hash(&["a", "bc"]));
        assert_eq!(name_hash(&["a", "b"]), name_hash(&["a", "b"]));
    }

    #[test]
    fn header_check_rejects_a_foreign_table() {
        assert!(check_header::<Sample>(3, u64::from(Sample::NAME_HASH)).is_ok());
        let wrong_count = check_header::<Sample>(4, u64::from(Sample::NAME_HASH)).unwrap_err();
        assert!(wrong_count.contains("Sample block has 4 counters"), "{wrong_count}");
        assert!(check_header::<Sample>(3, u64::from(Renamed::NAME_HASH)).is_err());
    }
}
